import numpy as np
import pytest

from test_kernels import split


def test_svd_diag_truncation():
    _, s, _, tw = split(np.diag([3.0, 2.0, 1.0]), 2, 1e-12)
    assert np.allclose(s, [3.0, 2.0])
    assert tw == pytest.approx(1.0)


def test_svd_identity():
    _, s, _, tw = split(np.eye(2), 2, 1e-12)
    assert np.allclose(s, [1.0, 1.0])
    assert tw == 0.0
