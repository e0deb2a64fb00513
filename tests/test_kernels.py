import numpy as np
import pytest

from openchain import kernels, mpdo, mps
from openchain.models import ModelParams, build_xxz_gate, expm, pauli_basis


def random_vidal_bond(rng, chi, d, dtype):
    def lam(n):
        v = np.sort(rng.random(n))[::-1] + 0.1
        return v / np.linalg.norm(v)

    def gam(shape):
        g = rng.standard_normal(shape)
        if dtype == np.complex128:
            g = g + 1j * rng.standard_normal(shape)
        return g.astype(dtype)

    return (lam(chi), gam((chi, d, chi)), lam(chi), gam((chi, d, chi)), lam(chi))


def test_bond_update_is_exact_without_truncation():
    """A restore, either push, keeps the two-site theta."""
    rng = np.random.default_rng(11)
    lam_l, gl, lam_c, gr, lam_r = random_vidal_bond(rng, 4, 2, np.complex128)
    theta_before = kernels._assemble_theta(lam_l, gl, lam_c, gr, lam_r)
    for push in ("right", "left"):
        ngl, nlam, ngr, kept, tw, _ = kernels.bond_update_nogate(
            lam_l, gl, lam_c, gr, lam_r, push, 16, 0.0)
        theta_after = kept * kernels._assemble_theta(lam_l, ngl, nlam, ngr, lam_r)
        assert tw <= 1e-13
        assert np.max(np.abs(theta_after - theta_before)) <= 1e-12
        # the split site is an isometry: left-orthonormal pushing right,
        # right-orthonormal pushing left
        eye = np.eye(len(nlam))
        if push == "right":
            a = (lam_l[:, None, None] * ngl).reshape(-1, len(nlam))
            assert np.max(np.abs(a.conj().T @ a - eye)) <= 1e-12
        else:
            b = (ngr * lam_r[None, None, :]).reshape(len(nlam), -1)
            assert np.max(np.abs(b @ b.conj().T - eye)) <= 1e-12


def test_restore_names_its_push():
    rng = np.random.default_rng(12)
    bond = random_vidal_bond(rng, 3, 2, np.float64)
    with pytest.raises(ValueError, match="'up'"):
        kernels.bond_update_nogate(*bond, "up", 8, 0.0)


def test_sweep_order_is_exact_reversal():
    for n_bonds in (1, 2, 5, 8):
        gates = [f"gate {b}" for b in range(n_bonds)]
        sweeps = [[(parity, gates) for parity in kernels.SWEEP_PARITIES[t]]
                  for t in (False, True)]
        fwd, rev = (kernels.layer_schedule(layers, n_bonds) for layers in sweeps)
        assert sorted(fwd) == [(b, gates[b]) for b in range(n_bonds)]
        for layers in sweeps:
            for layer in layers:
                sites = [s for b, _ in kernels.layer_schedule([layer], n_bonds)
                         for s in (b, b + 1)]
                assert len(sites) == len(set(sites))   # disjoint bonds
        assert rev == kernels.layer_schedule(sweeps[0][::-1], n_bonds)


def test_fused_strang_pairs_are_two_n_plus_one_layers():
    for n in (1, 2, 3, 6):
        layers = kernels.fuse_sweeps(((1, False), (1, True)) * n)
        assert len(layers) == 2 * n + 1
        assert [par for par, _ in layers] == [k % 2 for k in range(2 * n + 1)]
        assert [frac for _, frac in layers] == [1] + [2] * (2 * n - 1) + [1]


def test_a_single_sweep_is_not_fused():
    for transposed in (False, True):
        assert kernels.fuse_sweeps([(3, transposed)]) == tuple(
            (parity, 3) for parity in kernels.SWEEP_PARITIES[transposed])


def test_complex_gate_on_a_real_mpdo_raises_and_leaves_it_untouched():
    st = mpdo.neel_mpdo(4, pauli_basis())
    p = ModelParams(n_sites=4, gamma_z=0.5)
    gates = mpdo.build_trotter4_gates(p, st.basis, 0.1)[1]
    kernels.sweep_chain(st, gates, 16, 1e-12)
    before = st.copy()
    schedule = [(0, gates[0]), (1, gates[1].astype(np.complex128))]
    with pytest.raises(TypeError, match="complex gate"):
        kernels.apply_schedule(st, schedule, 16, 1e-12)
    assert all(np.array_equal(a, b) for a, b in zip(st.tensors, before.tensors))
    assert all(np.array_equal(a, b) for a, b in zip(st.lambdas, before.lambdas))
    assert st.log_scale == before.log_scale


def test_truncation_cap_and_cutoff():
    rng = np.random.default_rng(13)
    lam_l, gl, lam_c, gr, lam_r = random_vidal_bond(rng, 6, 2, np.float64)
    for push in ("right", "left"):
        _, lam, _, _, tw, _ = kernels.bond_update_nogate(
            lam_l, gl, lam_c, gr, lam_r, push, 3, 0.0)
        assert len(lam) <= 3
        assert tw > 0.0
        assert abs(np.linalg.norm(lam) - 1.0) <= 1e-12


def split(m, chi_max, cutoff):
    """The bond kernel's split of a matrix:
    (U, kept singular values, V^dag, tw)."""
    rows, cols = m.shape
    u, lam, vh, kept, tw, _ = kernels._split_theta(m, rows, 1, cols, chi_max,
                                                   cutoff)
    return u.reshape(rows, -1), kept * lam, vh.reshape(-1, cols), tw


def test_split_weight_isometries_and_order():
    rng = np.random.default_rng(3)
    for shape, chi in [((6, 9), 3), ((8, 5), 8), ((7, 7), 2)]:
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u, s, vh, tw = split(m, chi, 0.0)
        err = np.linalg.norm(m - (u * s[None, :]) @ vh)
        assert abs(err - tw) <= 1e-10
        k = len(s)
        assert np.max(np.abs(u.conj().T @ u - np.eye(k))) <= 1e-12
        assert np.max(np.abs(vh @ vh.conj().T - np.eye(k))) <= 1e-12
        assert np.all(np.diff(s) <= 1e-15)
        assert np.all(s >= 0)


def test_split_relative_cutoff():
    _, s, _, _ = split(np.diag([1.0, 1e-6, 1e-15]), 10, 1e-12)
    assert len(s) == 2


def test_split_rank_one():
    _, s, _, _ = split(np.outer([1.0, 1.0], [1.0, 1.0]), 4, 1e-14)
    assert len(s) == 1
    assert s[0] == pytest.approx(2.0)


def test_svd_diag_truncation():
    _, s, _, tw = split(np.diag([3.0, 2.0, 1.0]), 2, 1e-12)
    assert np.allclose(s, [3.0, 2.0])
    assert tw == pytest.approx(1.0)


def test_svd_identity():
    _, s, _, tw = split(np.eye(2), 2, 1e-12)
    assert np.allclose(s, [1.0, 1.0])
    assert tw == 0.0


def test_schmidt_entropy():
    assert kernels.schmidt_entropy(np.array([1.0])) == 0.0
    assert kernels.schmidt_entropy(np.array([np.sqrt(0.5), np.sqrt(0.5)])) == \
        pytest.approx(1.0)
    assert kernels.schmidt_entropy(np.array([1.0, 0.0])) == 0.0


def test_entropies_read_every_bond_of_every_chain():
    rates = dict(gamma_plus=0.3, gamma_minus=0.6, gamma_z=0.2)
    p = ModelParams(n_sites=6, **rates)
    pure = mps.neel_mps(6)
    for _ in range(4):
        mps.sweep(pure, build_xxz_gate(p, 0.2), 16, 1e-12)
    finite, cell = mpdo.neel_mpdo(6), mpdo.neel_mpdo(None)
    finite_gates = mpdo.build_trotter4_gates(p, pauli_basis(), 0.2)
    cell_gates = mpdo.build_trotter4_gates(ModelParams(**rates), pauli_basis(), 0.2)
    for _ in range(2):
        mpdo.trotter4_step(finite, finite_gates, 16, 1e-12)
        mpdo.itebd_trotter4_step(cell, cell_gates, 16, 1e-12)
    for chain in (pure, finite, cell):
        ent = kernels.entropies(chain)
        assert ent.tolist() == [kernels.schmidt_entropy(lam)
                                for lam in chain.lambdas]
        assert ent.min() > 0.1


def test_split_sums_and_inverses_match_the_scalar_loops():
    """Running sums and the masked division round exactly as scalar loops."""
    rng = np.random.default_rng(17)
    for n in (1, 3, 40, 200):
        for _ in range(20):
            m = rng.standard_normal((n, n)) * rng.random(n) ** 6
            lam = np.sort(rng.random(n) ** 12)[::-1]
            lam[rng.random(n) < 0.2] = 0.0
            s = np.linalg.svd(m, full_matrices=False)[1]   # as the kernel calls it
            keep = kernels._keep_count(s, max(1, n // 2), 1e-8)
            kept2 = w2 = 0.0
            for k in range(len(s)):
                if k < keep:
                    kept2 += s[k] * s[k]
                else:
                    w2 += s[k] * s[k]
            _, _, _, kept, tw, _ = kernels._split_theta(
                m, n, 1, n, max(1, n // 2), 1e-8)
            assert kept == np.sqrt(kept2) and tw == np.sqrt(w2)
            inv = np.zeros(n)
            for a in range(n):
                if lam[a] > kernels.LAMBDA_FLOOR:
                    inv[a] = 1.0 / lam[a]
            assert np.array_equal(kernels._floored_inverse(lam), inv)


# -- the guess split: large blocks seeded by the old right tensor ------------

PARITY = np.array([0, 0, 1, 1])   # Z2 charges of a d = 4 physical index


def z2_bond(rng, chi, dtype, labelled=True):
    """Random d = 4 Vidal bond, Z2-symmetric when labelled, with decaying
    lambdas: (lam_l, gam_l, lam_c, gam_r, lam_r, q_l, q_c, q_r)."""
    lam_l, gl, lam_c, gr, lam_r = random_vidal_bond(rng, chi, 4, dtype)
    lam_c = np.exp(-np.arange(chi) / 3.0)
    lam_c /= np.linalg.norm(lam_c)
    q = [np.arange(chi) % 2 for _ in range(3)]
    if labelled:
        gl = gl * ((q[0][:, None, None] + PARITY[None, :, None]) % 2
                   == q[1][None, None, :])
        gr = gr * ((q[1][:, None, None] + PARITY[None, :, None]) % 2
                   == q[2][None, None, :])
    return lam_l, gl, lam_c, gr, lam_r, *q


def pair_gate(rng, dtype, scale, labelled=True):
    """exp(-i scale H) for a random 16 x 16 H; block-diagonal in the pair
    parity when labelled. Real dtype: the orthogonal exp(scale A), A = -A^T."""
    h = rng.standard_normal((16, 16))
    if dtype == np.complex128:
        h = h + 1j * rng.standard_normal((16, 16))
        gen = -1j * (h + h.conj().T)
    else:
        gen = h - h.T
    if labelled:
        pair = (PARITY[:, None] + PARITY[None, :]).ravel() % 2
        gen = gen * (pair[:, None] == pair[None, :])
    return expm(scale * gen).astype(dtype)


def counting(monkeypatch, name):
    """Count the calls of np.linalg.<name> from here on."""
    calls, f = [], getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name,
                        lambda *a, **k: calls.append(a[0].shape) or f(*a, **k))
    return calls


def split_weights(bond, gate, chi_max, cutoff, labelled):
    """(theta, guess split, full split, reconstruction error of the guess split)."""
    lam_l, gl, lam_c, gr, lam_r, q_l, q_c, q_r = bond
    labels = (q_l, PARITY, q_r) if labelled else None
    qc = q_c if labelled else None
    out = kernels.bond_update(lam_l, gl, lam_c, gr, lam_r, gate, chi_max,
                              cutoff, labels, 2, qc)
    dl, d, dr = gl.shape[0], 4, gr.shape[2]
    theta = kernels._assemble_theta(lam_l, gl, lam_c, gr, lam_r)
    th = theta.reshape(dl, d, d, dr).transpose(1, 2, 0, 3).reshape(16, -1)
    theta = (gate @ th).reshape(d, d, dl, dr).transpose(2, 0, 1, 3).reshape(
        dl * d, d * dr)
    u, lam, vh, kept, tw, q = kernels._split_theta(theta, dl, d, dr, chi_max,
                                                   cutoff, labels, 2)
    full = (u * kernels._floored_inverse(lam_l)[:, None, None], lam,
            vh * kernels._floored_inverse(lam_r), kept, tw, q)
    rebuilt = out[3] * kernels._assemble_theta(lam_l, out[0], out[1], out[2],
                                               lam_r)
    return theta, out, full, np.linalg.norm(theta - rebuilt)


GUESS_CASES = pytest.mark.parametrize(
    "dtype,labelled", [(np.float64, True), (np.complex128, True),
                       (np.float64, False), (np.complex128, False)],
    ids=["z2-real", "z2-complex", "plain-real", "plain-complex"])


@GUESS_CASES
@pytest.mark.parametrize("scale", [0.0, 0.02, 0.05])
def test_guess_split_reports_its_reconstruction_error(monkeypatch, dtype,
                                                      labelled, scale):
    rng = np.random.default_rng(31)
    bond = z2_bond(rng, 32, dtype, labelled)
    gate = pair_gate(rng, dtype, scale, labelled)
    qr, svd = counting(monkeypatch, "qr"), counting(monkeypatch, "svd")
    theta, out, full, err = split_weights(bond, gate, 24, 1e-12, labelled)
    # every block took the guess split (two QRs, one small SVD) and none
    # fell back; the reference split makes one full SVD per block
    n_blocks = 2 if labelled else 1
    assert len(qr) == 2 * n_blocks
    assert len(svd) == 2 * n_blocks and max(svd) == (32 * 4 // n_blocks,) * 2
    assert len(out[1]) == len(full[1]) == 24
    tw, tw_exact = out[4], full[4]
    assert tw_exact > 1e-6
    assert abs(err - tw) <= 1e-12 * tw
    # the exact tail is the least error of any split (equal, up to rounding,
    # when the guess is exact)
    assert tw >= tw_exact * (1.0 - 1e-13)


@GUESS_CASES
def test_turned_row_space_falls_back_to_the_full_svd(monkeypatch, dtype,
                                                     labelled):
    rng = np.random.default_rng(32)
    bond = z2_bond(rng, 32, dtype, labelled)
    # a random unitary gate turns theta's row space away from the guess
    gate = pair_gate(rng, dtype, 3.0, labelled)
    qr, svd = counting(monkeypatch, "qr"), counting(monkeypatch, "svd")
    # no cap: the guess split would drop no value, so its residual decides
    theta, out, full, err = split_weights(bond, gate, 128, 1e-12, labelled)
    n_blocks = 2 if labelled else 1
    assert len(qr) == 2 * n_blocks   # each block tried the guess split ...
    # ... and took the full SVD after it: its small SVD, the full one, and
    # the reference split's
    assert [s for s in svd if s == max(svd)] == [max(svd)] * 2 * n_blocks
    for a, b in zip(out, full):
        if a is not None:
            assert np.max(np.abs(a - b)) <= 1e-12
    assert out[4] == 0.0 and err <= 1e-12 * np.linalg.norm(theta)


def test_small_u1_blocks_call_no_qr(monkeypatch):
    """Blocks the size of a 32-site trajectory's (mean 9.7) keep the full SVD."""
    rng = np.random.default_rng(33)
    qr = counting(monkeypatch, "qr")
    q_l = rng.integers(10, 14, size=24)
    q_c = rng.integers(10, 15, size=24)
    q_r = rng.integers(11, 15, size=24)
    dl, dr = len(q_l), len(q_r)
    row_q = (q_l[:, None] + [0, 1]).ravel()
    col_q = (q_r[None, :] - [[0], [1]]).ravel()
    theta = rng.standard_normal((2 * dl, 2 * dr))
    theta = theta * (row_q[:, None] == col_q[None, :])
    gam_r = rng.standard_normal((len(q_c), 2, dr))
    groups, rows, cols = kernels._sectors((q_l, np.array([0, 1]), q_r), None)
    assert max(min(len(r), len(c)) for r, c in zip(rows, cols)) < 2 * 9
    out = kernels._split_theta(theta, dl, 2, dr, 16, 1e-10,
                               (q_l, np.array([0, 1]), q_r), None,
                               (gam_r, np.ones(dr), q_c))
    ref = kernels._split_theta(theta, dl, 2, dr, 16, 1e-10,
                               (q_l, np.array([0, 1]), q_r), None)
    assert qr == []
    for a, b in zip(out, ref):
        assert np.array_equal(a, b)
