"""Z2 charge labels of the finite MPDO and the block SVD of the bond kernel."""

import numpy as np
import pytest

from openchain import kernels, mpdo
from openchain.models import ModelParams, linearized_basis, pauli_basis
from openchain.kernels import _keep_count

BASES = [pauli_basis(), linearized_basis()]
RATES = dict(gamma_plus=0.3, gamma_minus=0.5, gamma_z=0.2)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
UP = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def evolve(st, p, dt, steps, chi, cutoff):
    gates = mpdo.build_trotter4_gates(p, st.basis, dt)
    for _ in range(steps):
        mpdo.trotter4_step(st, gates, chi, cutoff)
        mpdo.renormalize_trace(st)
    return st


def unlabelled(st):
    out = st.copy()
    out.charges = None
    return out


# -- the one truncation rule ---------------------------------------------------

def old_kernel_keep(s, chi_max, cutoff):
    """The loop of the bond kernel before it called _keep_count."""
    keep = 1
    if s[0] > 0.0:
        keep = 0
        for k in range(min(chi_max, s.shape[0])):
            if s[k] >= cutoff * s[0]:
                keep = k + 1
            else:
                break
        keep = max(keep, 1)
    return keep


def old_reorth_keep(s, chi, cutoff):
    """The inline rule of reorthogonalize before it called _keep_count."""
    return max(1, min(int(np.sum(s >= cutoff * s[0])), chi)) if s[0] > 0 else 1


def spectra(rng):
    for n in (1, 2, 7, 40):
        yield np.sort(rng.random(n))[::-1]
        yield np.sort(rng.random(n) ** 8)[::-1]          # wide dynamic range
    yield np.zeros(5)                                     # s0 = 0
    yield np.array([1.0, 0.5, 0.5, 0.5, 0.1])             # ties across the cap
    yield np.array([1.0, 1e-3, 1e-3, 1e-4])               # ties at the cutoff
    yield np.array([2.0, 2.0, 0.0, 0.0])                  # trailing zeros


def test_keep_count_matches_the_three_old_rules():
    rng = np.random.default_rng(5)
    for s in spectra(rng):
        for chi in (1, 2, 3, 64):
            for cutoff in (0.0, 1e-14, 1e-3, 0.5, 1.0):
                new = _keep_count(s, chi, cutoff)
                assert new == old_kernel_keep(s, chi, cutoff), (s, chi, cutoff)
                assert new == old_reorth_keep(s, chi, cutoff), (s, chi, cutoff)


# -- labels --------------------------------------------------------------------

@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.flavor)
def test_site_parities_are_even_odd_odd_even(basis):
    assert basis.parities().tolist() == [0, 1, 1, 0]


def test_neel_labels_and_copy():
    st = mpdo.neel_mpdo(6, BASES[0])
    assert [q.tolist() for q in st.charges] == [[0]] * 5
    dup = st.copy()
    assert dup.charges is not st.charges
    assert all(a is not b and np.array_equal(a, b)
               for a, b in zip(dup.charges, st.charges))
    cell = mpdo.neel_mpdo(None, BASES[0])
    assert [q.tolist() for q in cell.charges] == [[0], [0]]


def test_mixed_parity_product_is_unlabelled():
    assert mpdo.product_mpdo([PLUS, UP, UP, UP], BASES[0]).charges is None
    assert mpdo.product_mpdo([UP, UP, UP, UP], BASES[1]).charges is not None


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.flavor)
def test_labels_hold_after_fused_steps(basis):
    p = ModelParams(n_sites=8, **RATES)
    st = evolve(mpdo.neel_mpdo(8, basis), p, 0.1, 4, chi=32, cutoff=1e-12)
    mpdo.canonicalize(st, 32, 1e-12)
    parity = basis.parities()
    edge = np.zeros(1, dtype=np.int64)
    qs = [edge] + st.charges + [edge]
    assert max(st.bond_dims()) == 32
    for k, gam in enumerate(st.tensors):
        odd = (qs[k][:, None, None] + parity[None, :, None]
               + qs[k + 1][None, None, :]) % 2 == 1
        assert odd.any()
        assert np.all(gam[odd] == 0.0)
    for q, lam in zip(st.charges, st.lambdas):
        assert len(q) == len(lam)


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.flavor)
def test_labelled_run_matches_unlabelled_without_truncation(basis):
    p = ModelParams(n_sites=6, **RATES)
    chi, cutoff = 256, 0.0
    lab = mpdo.neel_mpdo(6, basis)
    plain = unlabelled(lab)
    for st in (lab, plain):
        evolve(st, p, 0.2, 3, chi, cutoff)
        mpdo.canonicalize(st, chi, cutoff)
    assert lab.charges is not None and plain.charges is None
    assert lab.bond_dims() == plain.bond_dims() == [4, 16, 64, 16, 4]
    assert np.max(np.abs(mpdo.all_sz(lab) - mpdo.all_sz(plain))) <= 1e-10
    for a, b in zip(lab.lambdas, plain.lambdas):
        assert np.max(np.abs(np.sort(a) - np.sort(b))) <= 1e-10


def test_checkpoint_state_is_unlabelled_and_steps_alike(tmp_path):
    """A checkpoint keeps the labels; the restored chain and an unlabelled
    copy both step like the original."""
    basis = BASES[1]
    p = ModelParams(n_sites=6, **RATES)
    st = evolve(mpdo.neel_mpdo(6, basis), p, 0.2, 1, chi=64, cutoff=0.0)
    path = tmp_path / "ck.npz"
    mpdo.save_checkpoint(path, st, p, 0.2)
    loaded, _, _ = mpdo.load_checkpoint(path)
    assert len(loaded.charges) == len(st.charges)
    assert all(np.array_equal(a, b) for a, b in zip(loaded.charges, st.charges))
    plain = unlabelled(st)
    for s in (st, loaded, plain):
        evolve(s, p, 0.2, 1, chi=64, cutoff=0.0)
        mpdo.canonicalize(s, 64, 0.0)
    assert loaded.charges is not None and plain.charges is None
    for other in (loaded, plain):
        assert st.bond_dims() == other.bond_dims()
        assert np.max(np.abs(mpdo.all_sz(st) - mpdo.all_sz(other))) <= 1e-12
        for a, b in zip(st.lambdas, other.lambdas):
            assert np.max(np.abs(np.sort(a) - np.sort(b))) <= 1e-12


def test_checkpoint_without_labels_loads_unlabelled(tmp_path):
    p = ModelParams(n_sites=6, **RATES)
    st = unlabelled(evolve(mpdo.neel_mpdo(6, BASES[0]), p, 0.2, 1, chi=64,
                           cutoff=0.0))
    path = tmp_path / "ck.npz"
    mpdo.save_checkpoint(path, st, p, 0.2)
    with np.load(path) as data:
        assert not [k for k in data.files if k.startswith("charge_")]
    loaded, _, _ = mpdo.load_checkpoint(path)
    assert loaded.charges is None
    assert all(np.array_equal(a, b) for a, b in zip(loaded.tensors, st.tensors))


def test_sector_coupling_gate_raises_on_labelled_chain_only():
    p = ModelParams(n_sites=6, **RATES)
    st = evolve(mpdo.neel_mpdo(6, BASES[0]), p, 0.2, 1, chi=64, cutoff=1e-12)
    gate = np.random.default_rng(3).standard_normal((16, 16))
    with pytest.raises(ValueError, match=r"bond 2 .*off-block entry \d"):
        mpdo.apply_super_gate(st.copy(), gate, 2, 64, 1e-12)
    plain = unlabelled(st)
    tw = mpdo.apply_super_gate(plain, gate, 2, 64, 1e-12)
    assert tw >= 0.0 and plain.charges is None


def test_layers_check_each_distinct_gate_once(monkeypatch):
    p = ModelParams(n_sites=8, **RATES)
    st = mpdo.neel_mpdo(8, BASES[0])
    gates = mpdo.build_trotter4_gates(p, st.basis, 0.1)
    checked = []
    check = kernels._check_gate_sectors

    def counting_check(gate, site_parity, bond):
        checked.append(id(gate))
        check(gate, site_parity, bond)

    monkeypatch.setattr(kernels, "_check_gate_sectors", counting_check)
    mpdo.trotter4_step(st, gates, 16, 1e-12)
    mpdo.trotter4_step(unlabelled(st), gates, 16, 1e-12)
    distinct = {id(g) for table in gates.values() for g in table}
    assert sorted(checked) == sorted(distinct)


def test_sector_coupling_gate_in_a_layer_raises_before_any_update():
    p = ModelParams(n_sites=6, **RATES)
    st = evolve(mpdo.neel_mpdo(6, BASES[0]), p, 0.2, 1, chi=64, cutoff=1e-12)
    gates = mpdo.build_trotter4_gates(p, st.basis, 0.2)
    bad = np.random.default_rng(3).standard_normal((16, 16))
    gates[2] = [bad if b == 3 else g for b, g in enumerate(gates[2])]
    before = st.copy()
    with pytest.raises(ValueError, match=r"bond 3 .*off-block entry \d"):
        mpdo.trotter4_step(st, gates, 64, 1e-12)
    assert all(np.array_equal(a, b) for a, b in zip(st.tensors, before.tensors))


def test_kernel_returns_labels_last():
    rng = np.random.default_rng(8)
    st = evolve(mpdo.neel_mpdo(4, BASES[0]), ModelParams(n_sites=4, **RATES),
                0.2, 1, chi=16, cutoff=1e-12)
    lam_l, lam_r = st.lambdas[0], st.lambdas[2]
    labels = (st.charges[0], BASES[0].parities(), st.charges[2])
    args = (lam_l, st.tensors[1], st.lambdas[1], st.tensors[2], lam_r)
    out = kernels.bond_update_nogate(*args, 16, 1e-12, labels)
    plain = kernels.bond_update_nogate(*args, 16, 1e-12)
    assert len(out) == len(plain) == 6 and plain[5] is None
    assert len(out[5]) == len(out[1]) == len(plain[1])
    assert np.max(np.abs(out[1] - plain[1])) <= 1e-12
    gate = rng.standard_normal((16, 16))
    assert len(kernels.bond_update(*args, gate, 16, 1e-12)) == 6
