import numpy as np
import pytest

from openchain import kernels, mpdo, oracle
from openchain.models import ModelParams, build_super_gates, \
    linearized_basis, pauli_basis

PAULI = pauli_basis()

UP = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
MIXED = 0.5 * np.eye(2, dtype=complex)


def evolve(p, dt, t_max, chi=64, cutoff=1e-14, basis=PAULI, state=None):
    st = mpdo.neel_mpdo(p.n_sites, basis) if state is None else state
    gates = mpdo.build_trotter4_gates(p, basis, dt)
    for _ in range(int(round(t_max / dt))):
        mpdo.trotter4_step(st, gates, chi, cutoff)
        mpdo.renormalize_trace(st)
    mpdo.canonicalize(st, chi, cutoff)
    return st


def test_neel_mpdo_basics():
    st = mpdo.neel_mpdo(4, PAULI)
    assert mpdo.trace(st) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(mpdo.all_sz(st), [1, -1, 1, -1])
    assert np.allclose(kernels.entropies(st), 0.0)
    assert st.tensors[0].dtype == np.float64
    with pytest.raises(ValueError):
        mpdo.neel_mpdo(5, PAULI)


def test_zero_step_super_gate_is_identity():
    p = ModelParams(n_sites=4, gamma_plus=0.3, gamma_minus=0.3)
    st = evolve(p, 0.1, 0.5)
    before_sz = mpdo.all_sz(st)
    before_s = kernels.entropies(st)
    for bond, g in enumerate(build_super_gates(p, PAULI, 0.0)):
        kernels.apply_schedule(st, [(bond, g)], 64, 1e-14)
    assert np.max(np.abs(mpdo.all_sz(st) - before_sz)) <= 1e-12
    assert np.max(np.abs(kernels.entropies(st) - before_s)) <= 1e-12


def test_two_site_hamiltonian_evolution_matches_cosine():
    p = ModelParams(n_sites=2)
    st = evolve(p, 0.05, 1.1)
    assert mpdo.all_sz(st)[0] == pytest.approx(np.cos(1.1), abs=1e-8)


def test_pure_dephasing_decays_offdiagonal_coefficients():
    gz = 0.8
    p = ModelParams(n_sites=4, j=0.0, delta=0.0, gamma_z=gz)
    st = mpdo.product_mpdo([PLUS] * 4, PAULI)
    st = evolve(p, 0.2, 1.0, state=st)
    # a bond-dimension-1 site tensor holds the Pauli coefficients (I, X, Y, Z)
    # of its site, so <sx> / Tr rho is the X over I ratio
    for site in range(4):
        c = st.tensors[site].reshape(4)
        assert c[1] / c[0] == pytest.approx(np.exp(-2 * gz), abs=1e-10)
        assert mpdo.all_sz(st)[site] == pytest.approx(0.0, abs=1e-10)


def test_dissipation_only_is_exact():
    # J=0: all gates commute and the sweep sequence telescopes to weight one
    p = ModelParams(n_sites=6, j=0.0, delta=0.0, gamma_plus=0.25, gamma_minus=0.75)
    st = evolve(p, 0.5, 1.0, chi=8)
    z = np.exp(-1.0) * np.array([1, -1] * 3) + (0.25 - 0.75) / 1.0 * (1 - np.exp(-1.0))
    assert np.max(np.abs(mpdo.all_sz(st) - z)) <= 1e-10
    assert mpdo.trace(st) == pytest.approx(1.0, abs=1e-12)


def test_trotter_fourth_order_scaling():
    p = ModelParams(n_sites=4, gamma_plus=0.5, gamma_minus=0.5)
    times, rhos = oracle.dense_lindblad_evolve(oracle.neel_rho(4), p, 1.0, 1.0,
                                               tol=1e-12)
    ref = oracle.dense_sz(rhos[-1])
    errs = []
    for dt in (0.25, 0.125):
        st = evolve(p, dt, 1.0)
        errs.append(np.max(np.abs(mpdo.all_sz(st) - ref)))
    ratio = errs[0] / errs[1]
    assert 11.0 <= ratio <= 23.0, (errs, ratio)


def test_large_step_dephasing_still_converged():
    p = ModelParams(n_sites=4, gamma_z=2.0)
    times, rhos = oracle.dense_lindblad_evolve(oracle.neel_rho(4), p, 2.0, 4.0)
    ref = oracle.dense_sz(rhos[-1])
    st = evolve(p, 2.0, 4.0)
    assert np.max(np.abs(mpdo.all_sz(st) - ref)) <= 5e-2
    oe = kernels.entropies(st)[1]
    assert oe == pytest.approx(oracle.dense_oe(rhos[-1], 2), abs=5e-2)


def test_operator_entanglement_examples():
    st = mpdo.product_mpdo([MIXED] * 4, PAULI)  # rho ~ identity
    assert np.allclose(kernels.entropies(st), 0.0)
    assert np.allclose(kernels.entropies(mpdo.neel_mpdo(4, PAULI)), 0.0)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    st2 = mpdo.mpdo_from_dense(rho, PAULI)
    assert kernels.entropies(st2)[0] == pytest.approx(2.0, abs=1e-12)
    assert oracle.dense_oe(rho, 1) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 4, 5, 8])
def test_mpdo_from_dense_roundtrip_observables(n):
    # n=1 has no bond; n=8 has the 256 bond at mpdo_from_dense's cap
    rng = np.random.default_rng(8)
    dim = 2 ** n
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    for basis in (PAULI, linearized_basis()):
        st = mpdo.mpdo_from_dense(rho, basis)
        assert st.bond_dims() == [min(4 ** k, 4 ** (n - k)) for k in range(1, n)]
        assert mpdo.trace(st) == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(mpdo.all_sz(st) - oracle.dense_sz(rho))) <= 1e-10
        ent = kernels.entropies(st)
        for cut in range(1, n):
            assert ent[cut - 1] == pytest.approx(oracle.dense_oe(rho, cut),
                                                 abs=1e-8)


@pytest.mark.parametrize("rates", [
    dict(gamma_plus=0.5, gamma_minus=0.5),
    dict(gamma_z=1.0),
    dict(gamma_plus=0.3, gamma_minus=0.7, gamma_z=0.2),
])
def test_mpdo_matches_oracle(rates):
    p = ModelParams(n_sites=4, **rates)
    times, rhos = oracle.dense_lindblad_evolve(oracle.neel_rho(4), p, 1.0, 2.0,
                                               tol=1e-11)
    st = evolve(p, 0.02, 2.0)
    assert np.max(np.abs(mpdo.all_sz(st) - oracle.dense_sz(rhos[-1]))) <= 1e-6
    assert kernels.entropies(st)[1] == \
        pytest.approx(oracle.dense_oe(rhos[-1], 2), abs=1e-5)
    assert mpdo.trace(st) == pytest.approx(1.0, abs=1e-8)


def test_linearized_basis_agrees_with_pauli():
    p = ModelParams(n_sites=4, gamma_plus=0.4, gamma_minus=0.1)
    st_p = evolve(p, 0.1, 1.0)
    st_l = evolve(p, 0.1, 1.0, basis=linearized_basis())
    assert st_l.tensors[0].dtype == np.complex128
    assert np.max(np.abs(mpdo.all_sz(st_p) - mpdo.all_sz(st_l))) <= 1e-10
    assert np.max(np.abs(kernels.entropies(st_p) - kernels.entropies(st_l))) <= 1e-8


def test_pauli_data_stays_real():
    p = ModelParams(n_sites=4, gamma_plus=0.2, gamma_minus=0.6, gamma_z=0.3)
    st = evolve(p, 0.1, 1.0)
    for t in st.tensors:
        assert t.dtype == np.float64


def test_magnetization_conservation():
    for rates in (dict(gamma_plus=0.5, gamma_minus=0.5), dict(gamma_z=1.5)):
        p = ModelParams(n_sites=6, **rates)
        st = evolve(p, 0.1, 2.0, chi=64, cutoff=1e-12)
        assert abs(np.sum(mpdo.all_sz(st))) <= 1e-6


def test_delta_sign_flip_leaves_entropies_unchanged():
    base = dict(n_sites=4, gamma_plus=0.3, gamma_minus=0.3)
    st_pos = evolve(ModelParams(delta=1.0, **base), 0.05, 1.5)
    st_neg = evolve(ModelParams(delta=-1.0, **base), 0.05, 1.5)
    assert np.max(np.abs(kernels.entropies(st_pos) - kernels.entropies(st_neg))) <= 1e-8
    # and at the dense level
    _, rp = oracle.dense_lindblad_evolve(oracle.neel_rho(4),
                                         ModelParams(delta=1.0, **base), 1.5, 1.5)
    _, rn = oracle.dense_lindblad_evolve(oracle.neel_rho(4),
                                         ModelParams(delta=-1.0, **base), 1.5, 1.5)
    assert abs(oracle.dense_oe(rp[-1], 2) - oracle.dense_oe(rn[-1], 2)) <= 1e-8
