"""Dense linear-algebra kernels shared by the l1 solvers.

Everything here works on plain float64 ndarrays.  The pseudoinverse and
the nullspace come from one LAPACK SVD each (``np.linalg.svd``) with the
rank threshold ``default_rank_tol``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "norm1",
    "norm2",
    "norm_inf",
    "soft",
    "default_rank_tol",
    "pinv",
    "nullspace_basis",
    "pcg",
]


def norm1(v) -> float:
    return float(np.sum(np.abs(v)))


def norm2(v) -> float:
    return float(np.linalg.norm(np.asarray(v, dtype=float).ravel()))


def norm_inf(v) -> float:
    v = np.asarray(v, dtype=float)
    return float(np.max(np.abs(v))) if v.size else 0.0


def soft(u, a):
    """Soft-threshold (shrinkage): sign(u) * max(|u| - a, 0), element-wise.

    ``a`` must be nonnegative.  Works on scalars and arrays alike.
    """
    if np.any(np.asarray(a) < 0):
        raise ValueError("soft-threshold level must be nonnegative")
    u = np.asarray(u, dtype=float)
    out = np.sign(u) * np.maximum(np.abs(u) - a, 0.0)
    return float(out) if out.ndim == 0 else out


def default_rank_tol(A: np.ndarray) -> float:
    """machine-eps * max(m, n) * max|A|, the default rank threshold."""
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return 0.0
    return float(np.finfo(float).eps * max(A.shape) * np.max(np.abs(A)))


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


def pcg(H, g, P=None, tol: float = 1e-10, maxiter: int | None = None) -> np.ndarray:
    """Preconditioned conjugate gradients for H x = g with SPD matrix H and SPD P.

    Starts from zero, stops when ||H x - g||_2 <= tol * ||g||_2 and
    otherwise returns the best iterate seen.  ``P`` is a callable applying
    the inverse preconditioner to a vector and defaults to the identity.
    """
    g = np.asarray(g, dtype=float).ravel()
    k = g.size
    H = np.asarray(H, dtype=float)
    if H.shape != (k, k):
        raise ValueError(f"system shape mismatch: H is {H.shape}, g has length {k}")
    scale = 1.0 + (np.max(np.abs(H)) if H.size else 0.0)
    if np.max(np.abs(H - H.T)) > 1e-10 * scale:
        raise ValueError("pcg requires a symmetric matrix")
    if maxiter is None:
        maxiter = 10 * k
    x = np.zeros(k)
    gnorm = norm2(g)
    if gnorm == 0.0:
        return x
    apply_prec = (lambda v: v) if P is None else P

    r = g
    best_x = x.copy()
    best_res = norm2(r)
    z = apply_prec(r)
    p = z.copy()
    rz = float(r @ z)
    for _ in range(maxiter):
        if norm2(r) <= tol * gnorm:
            return x
        Hp = H @ p
        denom = float(p @ Hp)
        if denom <= 0.0:  # loss of positive definiteness; bail out
            break
        alpha = rz / denom
        x = x + alpha * p
        r = r - alpha * Hp
        res = norm2(r)
        if res < best_res:
            best_res = res
            best_x = x.copy()
        z = apply_prec(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    if norm2(g - H @ x) <= best_res:
        return x
    return best_x
