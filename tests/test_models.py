import numpy as np
import pytest
import scipy.linalg

from openchain.models import ID2, SM, SP, SX, SY, SZ, ModelParams, \
    bond_weights, build_jump_ops, build_super_gate, build_super_gates, \
    build_xxz_gate, expm, linearized_basis, pauli_basis, \
    site_dissipator_matrix, two_site_generator, two_site_hamiltonian, \
    two_site_superop, xxz_propagator


def dense_site_superop(ls, basis):
    """Independent 4x4 dissipator expansion, applied element by element."""
    mat = np.zeros((4, 4), dtype=complex)
    for k, ek in enumerate(basis.elements):
        dx = np.zeros((2, 2), dtype=complex)
        for l in ls:
            dx += l @ ek @ l.conj().T - 0.5 * (l.conj().T @ l @ ek + ek @ l.conj().T @ l)
        for i, ei in enumerate(basis.elements):
            mat[i, k] = np.trace(ei.conj().T @ dx)
    return mat


@pytest.mark.parametrize("basis", [pauli_basis(), linearized_basis()])
def test_basis_orthonormal(basis):
    assert basis.orthonormality_defect() <= 1e-14


def test_pauli_basis_elements():
    b = pauli_basis()
    assert np.allclose(b.elements[0], ID2 / np.sqrt(2))
    assert np.allclose(b.elements[1], SX / np.sqrt(2))
    assert np.allclose(b.elements[2], SY / np.sqrt(2))
    assert np.allclose(b.elements[3], SZ / np.sqrt(2))


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n_sites=5).validate()
    with pytest.raises(ValueError):
        ModelParams(n_sites=4, gamma_z=-0.1).validate()
    ModelParams(n_sites=4).validate()
    ModelParams(n_sites=None).validate()


def test_xxz_gate_dt_zero_is_identity():
    g = build_xxz_gate(ModelParams(n_sites=2), 0.0)
    assert np.max(np.abs(g - np.eye(4))) <= 1e-15


def test_two_site_spectrum_in_single_flip_sector():
    # eigenvalues restricted to {ud, du} at delta = j: -J/4 +- J/2
    h2 = two_site_hamiltonian(ModelParams(j=1.0, delta=1.0, n_sites=2))
    sub = h2[1:3, 1:3]
    assert np.allclose(np.sort(np.linalg.eigvalsh(sub)), [-0.75, 0.25])


def test_gate_semigroup():
    p = ModelParams(n_sites=2)
    g1 = build_xxz_gate(p, 0.37)
    g2 = build_xxz_gate(p, 0.74)
    assert np.max(np.abs(g1 @ g1 - g2)) <= 1e-12


def test_gate_unitary_and_conserves_magnetization():
    g = build_xxz_gate(ModelParams(delta=0.7, n_sites=2), 0.23)
    assert np.max(np.abs(g.conj().T @ g - np.eye(4))) <= 1e-12
    sz2 = np.kron(SZ, ID2) + np.kron(ID2, SZ)
    assert np.max(np.abs(g @ sz2 - sz2 @ g)) <= 1e-12


def test_jump_ops_empty_without_rates():
    assert build_jump_ops(ModelParams(n_sites=4)) == []


def test_jump_ops_algebra():
    ops = build_jump_ops(ModelParams(n_sites=2, gamma_minus=1.0, gamma_z=2.0))
    by_channel = {(j.site, j.channel): j for j in ops}
    lm = by_channel[(0, "-")].matrix
    assert np.allclose(lm.conj().T @ lm, [[1, 0], [0, 0]])  # |up><up|
    lz = by_channel[(1, "z")].matrix
    assert np.allclose(lz.conj().T @ lz, 2.0 * np.eye(2))
    # site-major ordering with fixed channel order
    assert [(j.site, j.channel) for j in ops] == \
        [(0, "-"), (0, "z"), (1, "-"), (1, "z")]


@pytest.mark.parametrize("basis", [pauli_basis(), linearized_basis()])
def test_site_dissipator_matches_dense_oracle(basis):
    p = ModelParams(n_sites=2, gamma_plus=0.3, gamma_minus=0.8, gamma_z=0.4)
    ls = [np.sqrt(0.3) * SP, np.sqrt(0.8) * SM, np.sqrt(0.4) * SZ]
    got = site_dissipator_matrix(p, basis)
    assert np.max(np.abs(got - dense_site_superop(ls, basis))) <= 1e-12


def test_dephasing_dissipator_eigenvalues():
    # D[sqrt(gz) sz] has eigenvalue -2 gz on the sx coefficient, 0 on identity
    gz = 0.7
    mat = site_dissipator_matrix(ModelParams(n_sites=2, gamma_z=gz), pauli_basis())
    assert mat[1, 1] == pytest.approx(-2 * gz)
    assert mat[2, 2] == pytest.approx(-2 * gz)
    assert np.max(np.abs(mat[:, 0])) <= 1e-14  # unital: identity column vanishes


def test_emission_maps_identity_to_sz():
    # D[sqrt(g) sigma-](1) = -g sz, so the e1 column feeds e4 with -g
    g = 0.9
    mat = site_dissipator_matrix(ModelParams(n_sites=2, gamma_minus=g), pauli_basis())
    assert mat[3, 0] == pytest.approx(-g)
    assert mat[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_super_gate_dt_zero_identity_and_real():
    p = ModelParams(n_sites=2, gamma_plus=0.2, gamma_minus=0.2, gamma_z=0.1)
    g = build_super_gate(p, pauli_basis(), 0.0)
    assert g.dtype == np.float64
    assert np.max(np.abs(g - np.eye(16))) <= 1e-15


def test_generator_preserves_trace():
    # the all-identity row of the generator must vanish (d Tr rho / dt = 0)
    p = ModelParams(n_sites=2, gamma_plus=0.4, gamma_minus=0.1, gamma_z=0.3)
    for basis in (pauli_basis(), linearized_basis()):
        gen = two_site_generator(p, basis, 1.0, 0.5)
        tvec = np.array([np.trace(e) for e in basis.elements])
        trace_row = np.kron(tvec, tvec).conj() @ gen
        assert np.max(np.abs(trace_row)) <= 1e-12


def test_dephasing_gate_commutes_with_magnetization_superop():
    p = ModelParams(n_sites=2, gamma_z=0.8)
    basis = pauli_basis()
    gen = two_site_generator(p, basis)
    sz2 = np.kron(SZ, ID2) + np.kron(ID2, SZ)
    mz_left = two_site_superop(lambda x: sz2 @ x, basis)
    assert np.max(np.abs(gen @ mz_left - mz_left @ gen)) <= 1e-10


def test_balanced_rates_gate_commutes_with_commutator_superop():
    p = ModelParams(n_sites=2, gamma_plus=0.5, gamma_minus=0.5)
    basis = pauli_basis()
    gen = two_site_generator(p, basis)
    sz2 = np.kron(SZ, ID2) + np.kron(ID2, SZ)
    comm = two_site_superop(lambda x: x @ sz2 - sz2 @ x, basis)
    assert np.max(np.abs(gen @ comm - comm @ gen)) <= 1e-10


def test_bond_weights_cover_each_site_once():
    for n in (2, 4, 6):
        w = bond_weights(n)
        per_site = np.zeros(n)
        for b, (wl, wr) in enumerate(w):
            per_site[b] += wl
            per_site[b + 1] += wr
        assert np.allclose(per_site, 1.0)


def test_build_super_gates_counts():
    p = ModelParams(n_sites=6, gamma_z=0.5)
    assert len(build_super_gates(p, pauli_basis(), 0.01)) == 5
    assert len(build_super_gates(ModelParams(gamma_z=0.5), pauli_basis(), 0.01)) == 1


def _expm_cases():
    """(label, matrix) pairs: Hermitian, non-Hermitian and Lindblad generators."""
    rng = np.random.default_rng(2005)
    cases = []
    for k in range(20):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        p = ModelParams(j=rng.uniform(-2, 2), delta=rng.uniform(-2, 2),
                        gamma_plus=rng.uniform(0, 2), gamma_minus=rng.uniform(0, 2),
                        gamma_z=rng.uniform(0, 2), n_sites=4)
        for t in (-3.0, -0.05, 0.3, 7.0):
            cases.append((f"hermitian {k} t={t}", -1j * h * t))
        for t in (-0.5, 0.2, 1.0):
            cases.append((f"non-hermitian {k} t={t}", m * t))
        for basis in (pauli_basis(), linearized_basis()):
            gen = two_site_generator(p, basis, 1.0, 0.5)
            for t in (-2 * 0.25 / 12, -1.0, 0.01, 5.0):
                cases.append((f"lindblad {basis.flavor} {k} t={t}", gen * t))
    return cases


def test_expm_matches_scipy():
    needs_squaring = 0
    for label, a in _expm_cases():
        ref = scipy.linalg.expm(a)
        err = np.linalg.norm(expm(a) - ref) / np.linalg.norm(ref)
        assert err <= 1e-13, label
        needs_squaring += np.linalg.norm(a, 1) > 5.371920351148152
    assert needs_squaring >= 100


def test_expm_of_minus_a_is_the_inverse():
    # rounding in the product grows with the condition number
    # |exp(A)| |exp(-A)|: 1 for the unitary cases, up to 1e17 for a Lindblad
    # generator run backwards over t=5, where the product checks nothing
    checked = 0
    for label, a in _expm_cases():
        fwd, back = expm(a), expm(-a)
        cond = np.linalg.norm(fwd, 2) * np.linalg.norm(back, 2)
        if cond > 1e3:
            continue
        err = np.max(np.abs(fwd @ back - np.eye(len(a))))
        assert err <= 1e-13 * cond, label
        checked += 1
    assert checked >= 200


def test_expm_examples():
    assert np.max(np.abs(expm(np.zeros((4, 4))) - np.eye(4))) <= 1e-15
    d = np.diag([0.5, -2.0, 30.0])
    assert np.allclose(expm(d), np.diag(np.exp([0.5, -2.0, 30.0])), rtol=1e-13, atol=0)
    # nilpotent: exp(N) = 1 + N
    nil = np.array([[0.0, 40.0], [0.0, 0.0]])
    assert np.allclose(expm(nil), [[1.0, 40.0], [0.0, 1.0]], rtol=1e-14, atol=0)


def test_xxz_propagator_matches_expm():
    p = ModelParams(delta=0.7, n_sites=2)
    gate = xxz_propagator(p)
    for t in (-1.3, 0.0, 0.05, 2.0):
        ref = expm(-1j * two_site_hamiltonian(p) * t)
        assert np.max(np.abs(gate(t) - ref)) <= 1e-14
        assert np.array_equal(build_xxz_gate(p, t), gate(t))


def test_two_site_superop_matches_trace_loop():
    basis = linearized_basis()
    h2 = two_site_hamiltonian(ModelParams(delta=0.3, n_sites=2))
    fn = lambda x: h2 @ x - 0.5 * x @ h2 @ h2
    els = basis.elements
    products = [np.kron(els[i], els[j]) for i in range(4) for j in range(4)]
    loop = np.array([[np.trace(dual.conj().T @ fn(x)) for x in products]
                     for dual in products])
    assert np.max(np.abs(two_site_superop(fn, basis) - loop)) <= 1e-14
