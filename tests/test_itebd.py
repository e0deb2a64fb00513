import numpy as np
import pytest

from openchain import kernels, mpdo, runner
from openchain.models import SZ, ModelParams, linearized_basis, pauli_basis

PAULI = pauli_basis()


def run_itebd(p, dt, t_max, chi=64, cutoff=1e-12, reorth_every=10):
    st = mpdo.neel_mpdo(None, PAULI)
    gates = mpdo.build_trotter4_gates(p, PAULI, dt)
    for step in range(1, int(round(t_max / dt)) + 1):
        mpdo.itebd_trotter4_step(st, gates, chi, cutoff)
        if step % reorth_every == 0:
            mpdo.reorthogonalize(st, chi, cutoff)
            mpdo.itebd_renormalize(st)
    mpdo.reorthogonalize(st, chi, cutoff)
    mpdo.itebd_renormalize(st)
    return st


def run_finite(p, dt, t_max, chi=64, cutoff=1e-12):
    st = mpdo.neel_mpdo(p.n_sites, PAULI)
    gates = mpdo.build_trotter4_gates(p, PAULI, dt)
    for _ in range(int(round(t_max / dt))):
        mpdo.trotter4_step(st, gates, chi, cutoff)
        mpdo.renormalize_trace(st)
    mpdo.canonicalize(st, chi, cutoff)
    return st


def canonical_defect(state):
    """Deviation of the unit-cell transfer fixed points from the identity."""
    ga, gb = state.tensors
    lam_ab, lam_ba = state.lambdas
    cell = np.tensordot(ga * lam_ab[None, None, :], gb, axes=(2, 0))
    cell = cell.reshape(cell.shape[0], 16, cell.shape[-1])
    chi = cell.shape[0]
    right = np.einsum("asb,csb->ac", cell * lam_ba[None, None, :] ** 1,
                      (cell * lam_ba[None, None, :]).conj())
    left = np.einsum("asb,asc->bc", (cell * lam_ba[:, None, None]).conj(),
                     cell * lam_ba[:, None, None])
    right /= np.trace(right) / chi
    left /= np.trace(left) / chi
    return max(float(np.max(np.abs(right - np.eye(chi)))),
               float(np.max(np.abs(left - np.eye(chi)))))


def test_neel_cell():
    st = mpdo.neel_mpdo(None, PAULI)
    assert st.cell
    za, zb = mpdo.itebd_sz(st)
    assert za == pytest.approx(1.0)
    assert zb == pytest.approx(-1.0)


def test_identity_gates_leave_cell_invariant():
    p = ModelParams(gamma_z=0.5)
    st = run_itebd(p, 0.25, 1.0)
    za, zb = mpdo.itebd_sz(st)
    gates = mpdo.build_trotter4_gates(ModelParams(j=0.0, delta=0.0), PAULI, 0.3)
    mpdo.itebd_trotter4_step(st, gates, 64, 1e-12)
    za2, zb2 = mpdo.itebd_sz(st)
    assert za2 == pytest.approx(za, abs=1e-9)
    assert zb2 == pytest.approx(zb, abs=1e-9)


def gain_loss_cell(basis, steps, dt=0.1, chi=32, cutoff=1e-12,
                   renormalize=False):
    """Gain/loss cell after ``steps`` steps and no reorthogonalize.

    Returns the cell and the largest truncation weight of its steps.
    """
    p = ModelParams(gamma_plus=0.4, gamma_minus=0.4)
    st = mpdo.neel_mpdo(None, basis)
    gates = mpdo.build_trotter4_gates(p, basis, dt)
    for _ in range(steps):
        mpdo.itebd_trotter4_step(st, gates, chi, cutoff)
        if renormalize:
            mpdo.itebd_renormalize(st)
    return st, st.max_trunc_weight


BASES = pytest.mark.parametrize("basis", [PAULI, linearized_basis()],
                                ids=lambda b: b.flavor)


@BASES
def test_trace_reader_takes_left_and_right_eigenvectors(basis):
    st, _ = gain_loss_cell(basis, 10)
    lam_ab, lam_ba = st.lambdas
    if basis.flavor != "pauli":
        # a phase gauge of the (B,A) bond leaves the state as it is and makes
        # the eigenvectors complex, so that a conjugated l shows
        rng = np.random.default_rng(3)
        phase = np.exp(2j * np.pi * rng.uniform(size=len(lam_ba)))
        st.tensors[0] = phase.conj()[:, None, None] * st.tensors[0]
        st.tensors[1] = st.tensors[1] * phase[None, None, :]

    def site_mats(op):
        w = np.array([np.trace(op @ e) for e in basis.elements])
        return [np.tensordot(w, t, axes=(0, 1)) for t in st.tensors]

    ta, tb = site_mats(np.eye(2))
    wa, wb = site_mats(SZ)
    tm = (ta * lam_ab) @ (tb * lam_ba)
    # non-normal: left and right eigenvectors differ
    assert np.max(np.abs(tm @ tm.conj().T - tm.conj().T @ tm)) > 1e-3
    evals, vr = np.linalg.eig(tm)
    r = vr[:, np.argmax(np.abs(evals))]
    evals_l, vl = np.linalg.eig(tm.T)
    l = vl[:, np.argmax(np.abs(evals_l))]
    norm = l @ tm @ r
    za = np.real(l @ (wa * lam_ab) @ (tb * lam_ba) @ r / norm)
    zb = np.real(l @ (ta * lam_ab) @ (wb * lam_ba) @ r / norm)
    assert np.max(np.abs(np.subtract(mpdo.itebd_sz(st), (za, zb)))) <= 1e-12
    eta = np.real(evals[np.argmax(np.abs(evals))])
    assert mpdo.itebd_renormalize(st) == pytest.approx(eta, rel=1e-12)


def check_reorthogonalization(basis):
    """Evolve a gain/loss cell, reorthogonalize it; returns (<sz_A>, <sz_B>)."""
    st, _ = gain_loss_cell(basis, 10)
    za_before, zb_before = mpdo.itebd_sz(st)
    assert canonical_defect(st) > 1e-6  # non-unitary gates degrade the gauge
    mpdo.reorthogonalize(st, 32, 1e-12)
    assert canonical_defect(st) <= 1e-8
    za, zb = mpdo.itebd_sz(st)  # gauge change must not move observables
    assert za == pytest.approx(za_before, abs=1e-8)
    assert zb == pytest.approx(zb_before, abs=1e-8)
    return za, zb


def test_reorthogonalization_restores_canonical_form():
    check_reorthogonalization(PAULI)


def test_reorthogonalization_in_linearized_basis_matches_pauli():
    za, zb = check_reorthogonalization(linearized_basis())
    za_p, zb_p = check_reorthogonalization(PAULI)
    assert za == pytest.approx(za_p, abs=1e-8)
    assert zb == pytest.approx(zb_p, abs=1e-8)


@pytest.mark.parametrize("dtype", [float, complex])
def test_transfer_fixed_point_matches_dense_oracle(dtype):
    chi, s = 6, 16
    rng = np.random.default_rng(7)
    mats = rng.normal(size=(s, chi, chi))
    if dtype is complex:
        mats = mats + 1j * rng.normal(size=(s, chi, chi))
    x, eta = mpdo._transfer_fixed_point(mats, 1e-13, 4000)
    # vec_row(M X M^dag) = (M kron conj(M)) vec_row(X)
    dense = sum(np.kron(m, m.conj()) for m in mats)
    evals, evecs = np.linalg.eig(dense)
    k = int(np.argmax(np.abs(evals)))
    v = evecs[:, k].reshape(chi, chi)
    v = v / np.trace(v)
    assert eta == pytest.approx(evals[k].real, rel=1e-9)
    assert abs(evals[k].imag) <= 1e-9 * abs(evals[k])
    np.testing.assert_allclose(x / np.trace(x), v, atol=1e-9)


@pytest.mark.parametrize("basis", ["pauli", "linearized"])
def test_itebd_step_trace_drift_is_small(tmp_path, basis):
    # step 1 is neither reorthogonalized nor recorded, step 2 is both
    cfg = runner.config_from_dict({
        "engine": "itebd", "n_sites": "infinite", "basis": basis,
        "gamma_z": 1.0, "dt": 0.25, "dt_obs": 0.5, "t_max": 0.5,
        "reorth_every": 10, "chi": 64, "cutoff": 1e-10,
        "output_dir": str(tmp_path)})
    drift = runner.run(cfg).extras["max_step_trace_drift"]
    assert 0.0 <= drift <= 1e-7


def test_each_record_refresh_makes_one_eig(tmp_path, monkeypatch):
    eig, calls = np.linalg.eig, []
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(1) or eig(a))
    # 4 steps, records at steps 0, 2 and 4, reorthogonalized alone at 1 and 3
    cfg = runner.config_from_dict({
        "engine": "itebd", "n_sites": "infinite", "gamma_z": 1.0, "dt": 0.25,
        "dt_obs": 0.5, "t_max": 1.0, "reorth_every": 1, "chi": 16,
        "output_dir": str(tmp_path)})
    runner.run(cfg)
    # one per step's renormalization, per record and per lone reorthogonalize
    assert len(calls) == 4 + 3 + 2


@BASES
def test_one_fixed_point_reading_serves_both_readers(basis):
    st, _ = gain_loss_cell(basis, 10)
    fixed = mpdo.itebd_fixed_points(st)
    sz = mpdo.itebd_sz(st, fixed)
    assert np.array_equal(sz, mpdo.itebd_sz(st))
    assert mpdo.itebd_renormalize(st, fixed) == fixed[0]
    assert np.max(np.abs(np.subtract(mpdo.itebd_sz(st), sz))) <= 1e-12
    assert mpdo.itebd_fixed_points(st)[0] == pytest.approx(1.0, rel=1e-12)


def test_runtime_install_itebd_config_takes_the_guess_split(tmp_path,
                                                           monkeypatch):
    """The itebd config that CI runs on the numpy-only install reaches the
    guess split's np.linalg.qr (keep it equal to the workflow's)."""
    qr, calls = np.linalg.qr, []
    monkeypatch.setattr(np.linalg, "qr",
                        lambda *a, **k: calls.append(1) or qr(*a, **k))
    cfg = runner.config_from_dict({
        "engine": "itebd", "n_sites": "infinite", "gamma_z": 1.0, "dt": 0.25,
        "dt_obs": 0.25, "t_max": 0.5, "reorth_every": 1,
        "output_dir": str(tmp_path)})
    runner.run(cfg)
    assert calls


def test_staggered_magnetization_matches_finite_bulk():
    p_inf = ModelParams(gamma_z=1.0)
    st_inf = run_itebd(p_inf, 0.25, 3.0, chi=64)
    za, zb = mpdo.itebd_sz(st_inf)
    p_fin = ModelParams(n_sites=16, gamma_z=1.0)
    st_fin = run_finite(p_fin, 0.25, 3.0, chi=64)
    sz = mpdo.all_sz(st_fin)
    assert za == pytest.approx(sz[8], abs=1e-3)
    assert zb == pytest.approx(sz[7], abs=1e-3)
    assert za == pytest.approx(-zb, abs=1e-6)


def test_operator_entanglement_grows_then_reads_consistently():
    p = ModelParams(gamma_plus=0.5, gamma_minus=0.5)
    st = run_itebd(p, 0.1, 1.0, chi=64)
    s_ab, s_ba = kernels.entropies(st)
    assert 0.0 < s_ab <= np.log2(64)
    assert 0.0 < s_ba <= np.log2(64)


# -- charge labels on the cell -----------------------------------------------

def labelled_cell(basis, steps, dt=0.25, chi=64, cutoff=1e-10):
    """Gain/loss/dephasing cell, reorthogonalized after every step."""
    p = ModelParams(gamma_plus=0.3, gamma_minus=0.5, gamma_z=0.2)
    st = mpdo.neel_mpdo(None, basis)
    gates = mpdo.build_trotter4_gates(p, basis, dt)
    for _ in range(steps):
        mpdo.itebd_trotter4_step(st, gates, chi, cutoff)
        mpdo.reorthogonalize(st, chi, cutoff)
        mpdo.itebd_renormalize(st)
    return st, gates


@pytest.mark.parametrize("basis", [PAULI, linearized_basis()],
                         ids=lambda b: b.flavor)
def test_cell_blocks_hold_across_the_wrap(basis):
    st, _ = labelled_cell(basis, 4)
    q_ab, q_ba = st.charges
    parity = basis.parities()
    assert [len(q) for q in st.charges] == st.bond_dims()
    assert set(q_ab.tolist()) == set(q_ba.tolist()) == {0, 1}
    for gam, q_l, q_r in ((st.tensors[0], q_ba, q_ab),
                          (st.tensors[1], q_ab, q_ba)):
        odd = (q_l[:, None, None] + parity[None, :, None]
               + q_r[None, None, :]) % 2 == 1
        assert odd.any()
        assert np.all(gam[odd] == 0.0)


@pytest.mark.parametrize("basis", [PAULI, linearized_basis()],
                         ids=lambda b: b.flavor)
def test_labelled_cell_matches_unlabelled(basis):
    p = ModelParams(gamma_plus=0.3, gamma_minus=0.5, gamma_z=0.2)
    gates = mpdo.build_trotter4_gates(p, basis, 0.1)
    lab = mpdo.neel_mpdo(None, basis)
    plain = lab.copy()
    plain.charges = None
    for st in (lab, plain):
        for _ in range(2):
            mpdo.itebd_trotter4_step(st, gates, 256, 1e-13)
            mpdo.reorthogonalize(st, 256, 1e-13)
            mpdo.itebd_renormalize(st)
    assert lab.charges is not None and plain.charges is None
    assert lab.bond_dims() == plain.bond_dims()
    assert max(lab.bond_dims()) > 16
    for a, b in zip(lab.lambdas, plain.lambdas):
        assert np.max(np.abs(np.sort(a) - np.sort(b))) <= 1e-10
    assert np.max(np.abs(np.subtract(mpdo.itebd_sz(lab),
                                     mpdo.itebd_sz(plain)))) <= 1e-10


def test_off_block_fixed_point_raises():
    st, _ = labelled_cell(PAULI, 2)
    q_ab, q_ba = st.charges
    parity = PAULI.parities()
    odd = (q_ba[:, None, None] + parity[None, :, None]
           + q_ab[None, None, :]) % 2 == 1
    a, s, c = np.argwhere(odd)[0]
    st.tensors[0][a, s, c] = 0.1 * np.max(np.abs(st.tensors[0]))
    with pytest.raises(mpdo.DegenerateTransferError,
                       match=r"Z2 charge sectors.*off-block entry \d"):
        mpdo.reorthogonalize(st, 64, 1e-10)


def gauge_spectrum(st):
    """Singular values of the cell's (B,A) gauge matrix, built densely.

    With the transfer fixed points v_r = x x^dag and v_l = y y^dag, the
    gauge matrix is y^dag lambda_BA x; its spectrum does not depend on
    the choice of square roots.
    """
    ga, gb = st.tensors
    lam_ab, lam_ba = st.lambdas
    cell = np.tensordot(ga * lam_ab[None, None, :], gb, axes=(2, 0))
    cell = cell.reshape(len(lam_ba), 16, len(lam_ba))
    right = (cell * lam_ba[None, None, :]).transpose(1, 0, 2)
    left = (cell * lam_ba[:, None, None]).transpose(1, 2, 0).conj()
    roots = []
    for mats in (right, left):
        v, _ = mpdo._transfer_fixed_point(np.ascontiguousarray(mats),
                                          mpdo._TRANSFER_TOL,
                                          mpdo._TRANSFER_MAX_ITER)
        w, u = np.linalg.eigh(0.5 * (v + v.conj().T))
        roots.append(u * np.sqrt(np.clip(w, 0.0, None)))
    x, y = roots
    return np.linalg.svd(y.conj().T @ (lam_ba[:, None] * x), compute_uv=False)


@BASES
@pytest.mark.parametrize("labelled", [True, False], ids=["labelled", "plain"])
def test_capped_gauge_cut_keeps_the_leading_gauge_values(basis, labelled):
    st, gates = labelled_cell(basis, 2)
    if not labelled:
        st.charges = None
    mpdo.itebd_trotter4_step(st, gates, 64, 1e-10)
    chi = 16
    s = gauge_spectrum(st)
    assert len(st.lambdas[1]) > chi
    assert s[chi - 1] > 2.0 * s[chi]          # a clear gap at the cut
    st.max_restore_trunc_weight = 0.0   # read this restore's weight alone
    mpdo.reorthogonalize(st, chi, 1e-10)
    weight = st.max_restore_trunc_weight
    assert weight == pytest.approx(np.linalg.norm(s[chi:]) / np.linalg.norm(s),
                                   abs=1e-10)
    lam = st.lambdas[1]
    assert len(lam) == chi
    assert (st.charges is None) != labelled
    if labelled:
        assert len(st.charges[1]) == chi
    assert abs(np.sum(lam ** 2) - 1.0) <= 1e-14
    np.testing.assert_allclose(lam, s[:chi] / np.linalg.norm(s[:chi]),
                               rtol=0.0, atol=1e-10)


@BASES
def test_cell_restore_weight_does_not_depend_on_the_scale(basis):
    """The inner bond's left push records its weight relative to its matrix."""
    st, gates = labelled_cell(basis, 1, chi=8)
    kernels.apply_schedule(st, [(0, gates[1][0])], 32, 0.0)
    chi = len(st.lambdas[1])       # the gauge cut keeps all of bond (B,A)
    assert len(st.lambdas[0]) > chi
    weights = []
    for scale in (0.1, 1.0, 7.85):
        cell = st.copy()
        cell.tensors[1] = cell.tensors[1] * scale
        cell.max_restore_trunc_weight = 0.0
        mpdo.reorthogonalize(cell, chi, 0.0)
        assert len(cell.lambdas[0]) == chi
        weights.append(cell.max_restore_trunc_weight)
    assert weights[1] > 1e-6
    np.testing.assert_allclose(weights, weights[1], rtol=1e-12, atol=0.0)
    cell.max_restore_trunc_weight = 0.5    # an earlier, larger restore's
    mpdo.reorthogonalize(cell, chi, 0.0)
    assert cell.max_restore_trunc_weight == 0.5


@BASES
def test_per_step_renormalization_only_rescales(basis):
    # chi 128 and cutoff 0 cut nothing but rounding noise: no cut can flip
    cells = [gain_loss_cell(basis, 2, chi=128, cutoff=0.0, renormalize=r)
             for r in (False, True)]
    assert max(tw for _, tw in cells) <= 1e-14
    for st, _ in cells:
        mpdo.reorthogonalize(st, 128, 0.0)
        assert st.max_restore_trunc_weight <= 1e-12
        mpdo.itebd_renormalize(st)
    (plain, _), (renormalized, _) = cells
    assert plain.bond_dims() == renormalized.bond_dims()
    for a, b in zip(plain.lambdas, renormalized.lambdas):
        assert np.max(np.abs(a - b)) <= 1e-12
    assert np.max(np.abs(np.subtract(mpdo.itebd_sz(plain),
                                     mpdo.itebd_sz(renormalized)))) <= 1e-12


@BASES
@pytest.mark.parametrize("labelled", [True, False], ids=["labelled", "plain"])
def test_reorthogonalize_restores_the_inner_bond(basis, labelled):
    p = ModelParams(gamma_plus=0.3, gamma_minus=0.5, gamma_z=0.2)
    gates = mpdo.build_trotter4_gates(p, basis, 0.1)
    st = mpdo.neel_mpdo(None, basis)
    if not labelled:
        st.charges = None
    for _ in range(10):
        mpdo.itebd_trotter4_step(st, gates, 32, 1e-12)
    mpdo.reorthogonalize(st, 32, 1e-12)
    ga, gb = st.tensors
    lam_ab, lam_ba = st.lambdas
    assert len(lam_ab) > 16
    # lambda-weighted isometries, weighted as mps.check_canonical weighs them
    for gam, lam_l, lam_r in ((ga, lam_ba, lam_ab), (gb, lam_ab, lam_ba)):
        a = gam * lam_l[:, None, None]
        left = np.einsum("asb,asc->bc", a.conj(), a) - np.eye(len(lam_r))
        b = gam * lam_r[None, None, :]
        right = np.einsum("asb,csb->ac", b, b.conj()) - np.eye(len(lam_l))
        for dev, lam in ((left, lam_r), (right, lam_l)):
            assert np.max(np.abs(lam[:, None] * dev * lam)) <= 1e-11
    theta = np.einsum("a,asb,b,btc,c->astc", lam_ba, ga, lam_ab, gb, lam_ba)
    s = np.linalg.svd(theta.reshape(4 * len(lam_ba), -1), compute_uv=False)
    np.testing.assert_allclose(lam_ab, s[:len(lam_ab)] / np.linalg.norm(s),
                               rtol=0.0, atol=1e-12)
    if basis.flavor == "pauli":
        assert ga.dtype == gb.dtype == np.float64
