"""Dense tensor primitives: truncated SVD and the one truncation rule.

Tensors are plain numpy arrays in C (row-major) order; the shape tuple is the
list of extents and ``ravel()`` is the documented linearization. Contractions
are plain numpy calls (``@``, ``tensordot``) where they are needed; this
module holds no contraction primitive. ``_keep_count`` decides how many
singular values every split keeps.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SvdConvergenceError",
    "SvdResult",
    "truncated_svd",
]

# Singular values below DEFAULT_CUTOFF * s_max are dropped even when the
# bond-dimension cap would allow them; keeps numerical-noise bonds out.
DEFAULT_CUTOFF = 1e-12


class SvdConvergenceError(RuntimeError):
    """LAPACK failed to converge; carries the matrix dims."""

    def __init__(self, shape):
        self.shape = tuple(shape)
        super().__init__(f"SVD did not converge for matrix of shape {self.shape}")


@dataclass
class SvdResult:
    left: np.ndarray            # orthonormal columns
    singular_values: np.ndarray  # descending, >= 0
    right: np.ndarray           # orthonormal rows
    truncation_weight: float    # sqrt of the summed squares of dropped values


def truncated_svd(m, chi_max, cutoff=DEFAULT_CUTOFF):
    """SVD of a matrix keeping at most ``chi_max`` values above ``cutoff * s_max``.

    At least one value is always kept. ``truncation_weight`` equals the
    Frobenius norm of the discarded part of the matrix.
    """
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"truncated_svd expects a matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise ValueError(f"truncated_svd on empty matrix of shape {m.shape}")
    if chi_max < 1:
        raise ValueError(f"chi_max must be >= 1, got {chi_max}")
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(m.shape) from exc
    keep = _keep_count(s, chi_max, cutoff)
    weight = float(np.sqrt(np.sum(s[keep:] ** 2)))
    return SvdResult(
        left=np.ascontiguousarray(u[:, :keep]),
        singular_values=s[:keep].copy(),
        right=np.ascontiguousarray(vh[:keep, :]),
        truncation_weight=weight,
    )


def _keep_count(s, chi_max, cutoff):
    """The one truncation rule: how many leading values of ``s`` to keep.

    ``s`` is sorted descending. Counts the leading s >= cutoff * s[0], caps
    the count at ``chi_max`` and keeps at least one (exactly one if
    s[0] <= 0). The bond kernel, truncated_svd and the infinite cell's
    re-orthogonalization all truncate with it.
    """
    if s[0] <= 0.0:
        return 1
    keep = int((-s).searchsorted(-cutoff * s[0], side="right"))
    return max(1, min(keep, chi_max, len(s)))
