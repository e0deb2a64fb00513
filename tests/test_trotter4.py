"""The fused fourth-order layer schedule against the 36-layer sweep product."""

import numpy as np
import pytest

from openchain import kernels, mpdo
from openchain.models import ModelParams, build_super_gates, linearized_basis, \
    pauli_basis

BASES = [pauli_basis(), linearized_basis()]
RATES = dict(gamma_plus=0.3, gamma_minus=0.5, gamma_z=0.2)


def sweep_tables(p, basis, dt):
    """Per-bond tables for the two step sizes of TROTTER4_SEQUENCE."""
    return {frac: build_super_gates(p, basis, frac * dt / 12.0)
            for frac in (1, -2)}


def unfused_finite_step(st, tables, chi, cutoff):
    """TROTTER4_SEQUENCE applied sweep by sweep, bond by bond (36 layers)."""
    max_tw = 0.0
    for frac, transposed in mpdo.TROTTER4_SEQUENCE:
        for bond in kernels.sweep_bond_order(len(st.lambdas), transposed):
            ln, tw = kernels.apply_bond_gate(st.tensors, st.lambdas,
                                             tables[frac][bond], bond, chi, cutoff)
            st.log_scale += ln
            max_tw = max(max_tw, tw)
    return max_tw


def unfused_cell_step(st, tables, chi, cutoff):
    """TROTTER4_SEQUENCE on the unit cell: a sweep is (A,B) then (B,A)."""
    max_tw = 0.0
    for frac, transposed in mpdo.TROTTER4_SEQUENCE:
        for bond in ((1, 0) if transposed else (0, 1)):
            outer = st.lambdas[1 - bond]
            left, right = (0, 1) if bond == 0 else (1, 0)
            gl, lam, gr, kept, tw, _ = kernels.bond_update(
                outer, st.tensors[left], st.lambdas[bond], st.tensors[right],
                outer, tables[frac][0], chi, cutoff)
            st.tensors[left], st.tensors[right], st.lambdas[bond] = gl, gr, lam
            st.log_scale += np.log(kept)
            max_tw = max(max_tw, tw)
    return max_tw


def dense_coefficients(st):
    """Operator-basis coefficients of a finite MPDO, scale included."""
    vec = st.tensors[0]
    for k in range(1, st.n_sites):
        vec = np.tensordot(vec * st.lambdas[k - 1], st.tensors[k],
                           axes=(vec.ndim - 1, 0))
    return vec.reshape(-1) * np.exp(st.log_scale)


def ring_coefficients(st):
    """Coefficients of two unit cells closed into a periodic 4-site ring.

    Gauge-invariant, so two routes to the same state agree on it even when
    their SVDs pick different bond bases.
    """
    a = st.tensors[0] * st.lambdas[0][None, None, :]
    b = st.tensors[1] * st.lambdas[1][None, None, :]
    pair = np.einsum("aib,bjc->ijac", a, b).reshape(16, a.shape[0], -1)
    return np.einsum("kab,lba->kl", pair, pair) * np.exp(2 * st.log_scale)


def test_fused_schedule_structure():
    layers = mpdo.TROTTER4_LAYERS
    assert len(layers) == 25
    assert layers[0][0] == 1
    assert all(a[0] != b[0] for a, b in zip(layers, layers[1:]))
    assert {frac for _, frac in layers} == {1, 2, -1}
    for parity in (0, 1):
        assert sum(frac for par, frac in layers if par == parity) == 12
    gates = mpdo.build_trotter4_gates(ModelParams(n_sites=4), BASES[0], 0.1)
    assert set(gates) == {1, 2, -1}


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.flavor)
def test_fused_step_equals_unfused_product_finite(basis):
    p = ModelParams(n_sites=6, **RATES)
    dt, chi, cutoff = 0.2, 64, 0.0
    fused = mpdo.neel_mpdo(6, basis)
    unfused = fused.copy()
    gates = mpdo.build_trotter4_gates(p, basis, dt)
    tables = sweep_tables(p, basis, dt)
    for _ in range(2):
        assert mpdo.trotter4_step(fused, gates, chi, cutoff) == 0.0
        assert unfused_finite_step(unfused, tables, chi, cutoff) == 0.0
    assert fused.bond_dims() == [4, 16, 64, 16, 4]
    assert np.max(np.abs(dense_coefficients(fused)
                         - dense_coefficients(unfused))) <= 1e-10


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.flavor)
def test_fused_step_equals_unfused_product_cell(basis):
    p = ModelParams(**RATES)
    dt, chi, cutoff = 0.02, 64, 0.0
    fused = mpdo.neel_mpdo(None, basis)
    unfused = fused.copy()
    tw_fused = mpdo.itebd_trotter4_step(
        fused, mpdo.build_trotter4_gates(p, basis, dt), chi, cutoff)
    tw_unfused = unfused_cell_step(unfused, sweep_tables(p, basis, dt), chi, cutoff)
    assert max(tw_fused, tw_unfused) <= 1e-12
    assert np.max(np.abs(ring_coefficients(fused)
                         - ring_coefficients(unfused))) <= 1e-10


def test_wrong_length_gate_table_raises():
    basis = BASES[0]
    bulk = mpdo.build_trotter4_gates(ModelParams(**RATES), basis, 0.1)
    finite = mpdo.build_trotter4_gates(ModelParams(n_sites=6, **RATES), basis, 0.1)
    with pytest.raises(ValueError, match="has 1 bond gates, expected 5"):
        mpdo.trotter4_step(mpdo.neel_mpdo(6, basis), bulk, 16, 1e-12)
    with pytest.raises(ValueError, match="has 5 bond gates, expected 1"):
        mpdo.itebd_trotter4_step(mpdo.neel_mpdo(None, basis), finite, 16, 1e-12)


def test_cell_vanishing_norm_raises():
    bulk = mpdo.build_trotter4_gates(ModelParams(**RATES), BASES[0], 0.1)
    zero = {frac: [np.zeros((16, 16))] for frac in bulk}
    with pytest.raises(FloatingPointError, match="at bond 1"):
        mpdo.itebd_trotter4_step(mpdo.neel_mpdo(None), zero, 16, 1e-12)
