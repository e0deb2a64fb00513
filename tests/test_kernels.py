import numpy as np
import pytest

from openchain import kernels


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
    rng = np.random.default_rng(11)
    lam_l, gl, lam_c, gr, lam_r = random_vidal_bond(rng, 4, 2, np.complex128)
    theta_before = kernels._assemble_theta(lam_l, gl, lam_c, gr, lam_r)
    ngl, nlam, ngr, kept, tw, _ = kernels.bond_update_nogate(
        lam_l, gl, lam_c, gr, lam_r, 16, 0.0)
    theta_after = kept * kernels._assemble_theta(lam_l, ngl, nlam, ngr, lam_r)
    assert tw <= 1e-13
    assert np.max(np.abs(theta_after - theta_before)) <= 1e-12


def test_sweep_order_is_exact_reversal():
    for n_bonds in (1, 2, 5, 8):
        fwd = kernels.sweep_bond_order(n_bonds, transposed=False)
        rev = kernels.sweep_bond_order(n_bonds, transposed=True)
        assert sorted(fwd) == list(range(n_bonds))
        assert rev == fwd[::-1]


def test_truncation_cap_and_cutoff():
    rng = np.random.default_rng(13)
    lam_l, gl, lam_c, gr, lam_r = random_vidal_bond(rng, 6, 2, np.float64)
    _, lam, _, _, tw, _ = kernels.bond_update_nogate(lam_l, gl, lam_c, gr, lam_r, 3, 0.0)
    assert len(lam) <= 3
    assert tw > 0.0
    assert abs(np.linalg.norm(lam) - 1.0) <= 1e-12


def split(m, chi_max, cutoff):
    """The bond kernel's split of a matrix with unit boundary lambdas, so the
    returned tensors are U and V^dag: (U, kept singular values, V^dag, tw)."""
    rows, cols = m.shape
    gl, lam, gr, kept, tw, _ = kernels._split_theta(
        m, rows, 1, cols, np.ones(rows), np.ones(cols), chi_max, cutoff)
    return gl.reshape(rows, -1), kept * lam, gr.reshape(-1, cols), tw


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


def test_schmidt_entropy():
    assert kernels.schmidt_entropy(np.array([1.0])) == 0.0
    assert kernels.schmidt_entropy(np.array([np.sqrt(0.5), np.sqrt(0.5)])) == \
        pytest.approx(1.0)
    assert kernels.schmidt_entropy(np.array([1.0, 0.0])) == 0.0
