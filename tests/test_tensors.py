import numpy as np
import pytest

from openchain.tensors import SvdConvergenceError, truncated_svd


def test_svd_diag_truncation():
    res = truncated_svd(np.diag([3.0, 2.0, 1.0]), chi_max=2)
    assert np.allclose(res.singular_values, [3.0, 2.0])
    assert res.truncation_weight == pytest.approx(1.0)


def test_svd_identity():
    res = truncated_svd(np.eye(2), chi_max=2)
    assert np.allclose(res.singular_values, [1.0, 1.0])
    assert res.truncation_weight == 0.0


def test_svd_rank_one():
    m = np.outer([1.0, 1.0], [1.0, 1.0])
    res = truncated_svd(m, chi_max=4, cutoff=1e-14)
    assert len(res.singular_values) == 1
    assert res.singular_values[0] == pytest.approx(2.0)


def test_svd_reconstruction_weight_and_isometries():
    rng = np.random.default_rng(3)
    for shape, chi in [((6, 9), 3), ((8, 5), 8), ((7, 7), 2)]:
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        res = truncated_svd(m, chi_max=chi, cutoff=0.0)
        approx = (res.left * res.singular_values[None, :]) @ res.right
        err = np.linalg.norm(m - approx)
        assert abs(err - res.truncation_weight) <= 1e-10
        k = len(res.singular_values)
        assert np.max(np.abs(res.left.conj().T @ res.left - np.eye(k))) <= 1e-12
        assert np.max(np.abs(res.right @ res.right.conj().T - np.eye(k))) <= 1e-12
        assert np.all(np.diff(res.singular_values) <= 1e-15)
        assert np.all(res.singular_values >= 0)


def test_svd_untruncated_reconstruction():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((5, 5))
    res = truncated_svd(m, chi_max=5, cutoff=0.0)
    approx = (res.left * res.singular_values[None, :]) @ res.right
    assert np.linalg.norm(m - approx) <= 1e-12 * np.linalg.norm(m)


def test_svd_relative_cutoff():
    m = np.diag([1.0, 1e-6, 1e-15])
    res = truncated_svd(m, chi_max=10, cutoff=1e-12)
    assert len(res.singular_values) == 2


def test_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        truncated_svd(np.zeros((0, 3)), chi_max=2)
    with pytest.raises(ValueError):
        truncated_svd(np.zeros((2, 2, 2)), chi_max=2)
    with pytest.raises(ValueError):
        truncated_svd(np.eye(2), chi_max=0)


def test_svd_error_type_carries_shape():
    err = SvdConvergenceError((5, 7))
    assert err.shape == (5, 7)
