import numpy as np
import pytest

from openchain import kernels, mps, oracle
from openchain.analytics import two_spin_entropy
from openchain.models import ModelParams, SM, SP, SZ, build_jump_ops, \
    build_xxz_gate
from openchain.trajectories import apply_jump, build_effective_gates

P2 = ModelParams(n_sites=2)


def test_neel_requires_even():
    with pytest.raises(ValueError):
        mps.neel_mps(3)


def test_neel_expectations_and_entropies():
    st = mps.neel_mps(6)
    assert np.allclose(mps.all_sz(st), [1, -1, 1, -1, 1, -1])
    assert np.allclose(kernels.entropies(st), 0.0)


def test_identity_gate_is_noop():
    st = mps.neel_mps(4)
    kernels.apply_schedule(st, [(1, build_xxz_gate(P2, 0.4))], 16, 1e-12)
    before_sz = mps.all_sz(st)
    before_s = kernels.entropies(st)
    kernels.apply_schedule(st, [(1, np.eye(4))], 16, 1e-12)
    assert st.max_trunc_weight <= 1e-12
    assert np.max(np.abs(mps.all_sz(st) - before_sz)) <= 1e-12
    assert np.max(np.abs(kernels.entropies(st) - before_s)) <= 1e-12


def test_two_spin_populations_and_entropy():
    t = 1.3
    st = mps.neel_mps(2)
    kernels.apply_schedule(st, [(0, build_xxz_gate(P2, t))], 8, 1e-14)
    assert mps.all_sz(st)[0] == pytest.approx(np.cos(t), abs=1e-10)
    assert kernels.entropies(st)[0] == pytest.approx(two_spin_entropy(t), abs=1e-10)
    # populations of the reduced single spin
    up_pop = 0.5 * (1 + mps.all_sz(st)[0])
    assert up_pop == pytest.approx(np.cos(t / 2) ** 2, abs=1e-10)


def test_full_flip_resets_entropy():
    st = mps.neel_mps(2)
    kernels.apply_schedule(st, [(0, build_xxz_gate(P2, np.pi))], 8, 1e-14)
    assert kernels.entropies(st)[0] <= 1e-8
    st2 = mps.neel_mps(2)
    kernels.apply_schedule(st2, [(0, build_xxz_gate(P2, np.pi / 2))], 8,
                           1e-14)
    assert kernels.entropies(st2)[0] == pytest.approx(1.0, abs=1e-10)


def test_bell_pair_entropy():
    st = mps.product_mps([[1, 0], [1, 0]])
    bell = np.zeros((4, 4))
    bell[0, 0] = bell[3, 0] = 1 / np.sqrt(2)
    bell[1, 1] = 1.0
    bell[2, 2] = 1.0
    bell[3, 3] = -1.0  # any completion; column 0 is what acts on |uu>
    q, _ = np.linalg.qr(bell)
    kernels.apply_schedule(st, [(0, q)], 8, 1e-14)
    assert kernels.entropies(st)[0] == pytest.approx(1.0, abs=1e-12)


def test_norm_and_magnetization_over_many_gates():
    p = ModelParams(n_sites=6, delta=0.6)
    st = mps.neel_mps(6)
    gate = build_xxz_gate(p, 0.05)
    rng = np.random.default_rng(5)
    for _ in range(1000):
        bond = int(rng.integers(0, 5))
        kernels.apply_schedule(st, [(bond, gate)], 32, 1e-12)
    for lam in st.lambdas:
        assert abs(np.sum(lam ** 2) - 1.0) <= 1e-10
    vec = mps.to_dense(st)
    assert abs(np.linalg.norm(vec) * np.exp(st.log_scale) - 1.0) <= 1e-8
    assert abs(np.sum(mps.all_sz(st))) <= 1e-8
    assert np.all(kernels.entropies(st) <= np.log2(32) + 1e-12)


def test_canonical_form_maintained_and_restorable():
    p = ModelParams(n_sites=6)
    st = mps.neel_mps(6)
    gate = build_xxz_gate(p, 0.1)
    for _ in range(20):
        mps.sweep(st, gate, 32, 1e-12)
    assert mps.check_canonical(st) <= 1e-8
    # break the gauge with a non-unitary site op, then repair it
    mps.apply_site_op(st, np.array([[1.0, 0], [0, 0.3]]), 2)
    mps.canonicalize(st, 32, 1e-12)
    assert mps.check_canonical(st) <= 1e-8


def test_tebd_matches_dense_evolution():
    n = 6
    p = ModelParams(n_sites=n, delta=0.8)
    st = mps.neel_mps(n)
    gate_half = build_xxz_gate(p, 0.01)  # dt/2 for second-order sweeps
    for _ in range(50):
        mps.sweep(st, gate_half, 64, 1e-14, transposed=False)
        mps.sweep(st, gate_half, 64, 1e-14, transposed=True)
    ham = oracle.xxz_hamiltonian(p, n)
    evals, evecs = np.linalg.eigh(ham)
    psi = evecs @ (np.exp(-1j * evals * 1.0) * (evecs.conj().T @ oracle.neel_vector(n)))
    fidelity = abs(np.vdot(psi, mps.to_dense(st)))
    assert fidelity == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(mps.all_sz(st) - oracle.dense_sz_pure(psi))) <= 1e-4


def test_sz_any_gauge_reads_a_non_canonical_chain():
    # Neel chain after six sweep pairs of the strong-dissipation effective
    # gates (half of dt = 0.05), never canonicalized
    p = ModelParams(n_sites=10, gamma_plus=1.0, gamma_minus=2.0, gamma_z=0.5)
    gates = build_effective_gates(p, 0.025)
    st = mps.neel_mps(10)
    for _ in range(6):
        for transposed in (False, True):
            kernels.sweep_chain(st, gates, 64, 1e-10, transposed=transposed)
    sz = mps.sz_any_gauge(st)
    canon = st.copy()
    mps.canonicalize(canon, 64, 0.0)
    assert np.max(np.abs(sz - mps.all_sz(canon))) <= 1e-12
    vec = mps.to_dense(st)
    assert np.max(np.abs(sz - oracle.dense_sz_pure(vec / np.linalg.norm(vec)))) <= 1e-12
    # the local read is wrong here, so the chain is really off canonical form
    assert np.max(np.abs(mps.all_sz(st) - sz)) > 1e-6


def test_sz_any_gauge_on_neel_is_exact():
    assert mps.sz_any_gauge(mps.neel_mps(10)).tolist() == [1.0, -1.0] * 5


def test_all_sz_matches_sz_any_gauge_and_the_dense_state():
    n = 10
    p = ModelParams(n_sites=n, delta=0.8, gamma_minus=1.0)
    st = mps.label_charges(mps.neel_mps(n))
    gate = build_xxz_gate(p, 0.1)
    for transposed in (False, True) * 3:
        mps.sweep(st, gate, 64, 0.0, transposed=transposed)
    jump = next(j for j in build_jump_ops(p) if j.site == 4)   # sigma-
    apply_jump(st, jump, 64, 0.0)
    sz = mps.all_sz(st)
    assert np.max(np.abs(sz - mps.sz_any_gauge(st))) <= 1e-13
    vec = mps.to_dense(st)
    assert np.max(np.abs(sz - oracle.dense_sz_pure(vec / np.linalg.norm(vec)))) <= 1e-13


def test_check_canonical_trips_on_a_broken_gauge():
    st = random_canonical_chain(10, 5)
    assert mps.check_canonical(st) <= 1e-12
    vec = mps.to_dense(st)
    # Gamma_4 lambda_4 Gamma_5 = Gamma_4 lambda_4 X X^-1 Gamma_5: the state
    # stays, the gauge of the centre bond breaks
    lam = st.lambdas[4]
    x = np.eye(len(lam)) + 0.1 * np.random.default_rng(0).standard_normal(
        (len(lam), len(lam)))
    st.tensors[4] = np.einsum("asb,bc->asc", st.tensors[4],
                              lam[:, None] * x / lam[None, :])
    st.tensors[5] = np.einsum("ab,bsc->asc", np.linalg.inv(x), st.tensors[5])
    assert np.max(np.abs(mps.to_dense(st) - vec)) <= 1e-12
    assert mps.check_canonical(st) > 1e-2


def test_label_charges_counts_down_spins():
    st = mps.label_charges(mps.neel_mps(6))
    assert [q.tolist() for q in st.charges] == [[0], [1], [1], [2], [2]]
    assert st.total_charge == 3
    dup = st.copy()
    assert dup.total_charge == 3
    assert all(a is not b and np.array_equal(a, b)
               for a, b in zip(dup.charges, st.charges))
    assert mps.neel_mps(6).charges is None
    with pytest.raises(ValueError, match="site 1"):
        mps.label_charges(mps.product_mps([[1, 0], [1, 1]]))


def test_site_ops_shift_labels_and_sector_mixing_op_raises():
    st = mps.label_charges(mps.neel_mps(4))
    mps.apply_site_op(st, SP, 1)         # down -> up at site 1
    assert [q.tolist() for q in st.charges] == [[0], [0], [0]]
    assert st.total_charge == 1
    mps.apply_site_op(st, SM, 0)         # up -> down at site 0
    assert [q.tolist() for q in st.charges] == [[1], [1], [1]]
    assert st.total_charge == 2
    mps.apply_site_op(st, SZ, 3)
    assert st.total_charge == 2
    before = st.copy()
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    with pytest.raises(ValueError, match="site 2 mixes U\\(1\\) charge sectors"):
        mps.apply_site_op(st, hadamard, 2)
    assert np.array_equal(st.tensors[2], before.tensors[2])
    assert st.total_charge == 2
    # an unlabelled chain takes any op
    mps.apply_site_op(mps.neel_mps(4), hadamard, 2)


def random_canonical_chain(n, seed):
    """A canonical N-site chain at full rank from random two-site unitaries."""
    rng = np.random.default_rng(seed)
    kets = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    st = mps.product_mps(list(kets))
    for _ in range(3):
        for bond in [*range(0, n - 1, 2), *range(1, n - 1, 2)]:
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            q, _ = np.linalg.qr(m)
            kernels.apply_schedule(st, [(bond, q)], 64, 0.0)
    return st


def test_single_site_restore_matches_the_double_pass():
    n = 10
    base = random_canonical_chain(n, 4)
    assert base.bond_dims() == [2, 4, 8, 16, 32, 16, 8, 4, 2]
    op = np.array([[0.9, 0.3 - 0.2j], [0.1j, 0.4]])
    for site in range(n):
        local, full = base.copy(), base.copy()
        for st in (local, full):
            mps.apply_site_op(st, op, site)
        mps.canonicalize(local, 64, 0.0, site=site)
        mps.canonicalize(full, 64, 0.0)
        assert local.bond_dims() == full.bond_dims()
        for a, b in zip(local.lambdas, full.lambdas):
            assert np.max(np.abs(a - b)) <= 1e-12
        assert abs(local.log_scale - full.log_scale) <= 1e-12
        assert np.max(np.abs(mps.all_sz(local) - mps.all_sz(full))) <= 1e-12
        vec_l = mps.to_dense(local) * np.exp(local.log_scale)
        vec_f = mps.to_dense(full) * np.exp(full.log_scale)
        assert np.max(np.abs(vec_l - vec_f)) <= 1e-12
        assert mps.check_canonical(local) <= 1e-12


def test_restore_records_its_truncation_weight():
    base = random_canonical_chain(6, 2)
    op = np.array([[0.9, 0.3 - 0.2j], [0.1j, 0.4]])
    exact, cut = base.copy(), base.copy()
    for st in (exact, cut):
        mps.apply_site_op(st, op, 2)
    mps.canonicalize(exact, 64, 0.0, site=2)
    mps.canonicalize(cut, 2, 0.0, site=2)
    assert exact.max_restore_trunc_weight <= 1e-12
    assert cut.max_restore_trunc_weight > 1e-6
    assert cut.max_bond() == 2


def test_single_site_restore_takes_n_minus_one_updates(monkeypatch):
    bonds, pushes = [], []
    update = kernels._update_bond

    def counted(chain, gate, bond, *args):
        bonds.append(bond)
        pushes.append(gate)
        return update(chain, gate, bond, *args)

    monkeypatch.setattr(kernels, "_update_bond", counted)
    st = random_canonical_chain(6, 2)
    bonds.clear()
    pushes.clear()
    mps.apply_site_op(st, SP, 3)
    mps.canonicalize(st, 64, 0.0, site=3)
    assert bonds == [2, 1, 0, 3, 4]
    assert pushes == ["left"] * 3 + ["right"] * 2
