"""Dense linear-algebra kernels shared by the l1 solvers.

Everything here works on plain float64 ndarrays.  The pseudoinverse and
the nullspace come from one LAPACK SVD each (``np.linalg.svd``) with the
rank threshold ``default_rank_tol``.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = float(np.finfo(float).eps)
_F64 = np.dtype(float)

__all__ = [
    "norm1",
    "norm2",
    "norm_inf",
    "soft",
    "default_rank_tol",
    "pinv",
    "nullspace_basis",
]


def norm1(v) -> float:
    return float(np.abs(v).sum())


def norm2(v) -> float:
    # a strided v is copied, as ravel does: a strided dot product rounds differently
    if type(v) is not np.ndarray or v.dtype is not _F64 or v.strides != (8,):
        v = np.asarray(v, dtype=float).ravel()
    return math.sqrt(v @ v)  # as np.linalg.norm: the root of the dot product


def norm_inf(v) -> float:
    return float(np.abs(v).max(initial=0.0))


def soft(u, a):
    """Soft-threshold (shrinkage): sign(u) * max(|u| - a, 0), element-wise.

    ``a`` must be nonnegative (not NaN).  Works on scalars and arrays alike.
    """
    if not (np.asarray(a) >= 0).all():
        raise ValueError("soft-threshold level must be nonnegative")
    out = _soft(np.asarray(u, dtype=float), a)
    return float(out) if out.ndim == 0 else out


def _soft(u: np.ndarray, a):
    """``soft`` without its checks: u a float ndarray, a nonnegative."""
    return np.sign(u) * np.maximum(np.abs(u) - a, 0.0)


def _rank_error() -> ValueError:
    """The one error of every route on an A of column rank below n."""
    return ValueError("A has column rank below n; the l1 fit is not unique")


def default_rank_tol(A: np.ndarray) -> float:
    """machine-eps * max(m, n) * max|A|, the default rank threshold."""
    A = np.asarray(A, dtype=float)
    return _EPS * max(A.shape) * norm_inf(A) if A.size else 0.0


def pinv(A) -> np.ndarray:
    """Moore-Penrose inverse from one SVD.

    Singular values <= ``default_rank_tol(A)`` are treated as zero, so a
    zero matrix maps to its transposed zero matrix.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("pinv expects a nonempty 2-d matrix")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s > default_rank_tol(A)
    return (Vt[keep].T / s[keep]) @ U[:, keep].T


def nullspace_basis(A) -> np.ndarray:
    """Orthonormal basis of {p : A p = 0} as columns; shape (n, n - rank).

    The rank counts singular values above ``default_rank_tol(A)``.  A
    matrix with zero rows is accepted and yields the identity basis.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("nullspace_basis expects a 2-d matrix")
    _, s, Vt = np.linalg.svd(A, full_matrices=True)
    return Vt[np.count_nonzero(s > default_rank_tol(A)):].T

