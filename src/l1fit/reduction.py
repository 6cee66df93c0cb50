"""Problem types and the residual-space reduction.

An overdetermined system A x = b (A of size m x n, m >= n) is mapped to the
pair (D, w) with

    D = [-A2 A1^+  I_{m-n}],   w = A2 A1^+ b(1:n) - b(n+1:m),

where A1 is the top n x n block of A and A2 the remaining rows.  Every
residual r = A x - b satisfies D r = w, and conversely the minimum-l1
residual r* recovers the optimal parameters.  The reduction takes one
complete QR factorization A = Q [R; 0] and recovers x* = R^-1 Q1^T (b + r*)
with Q1 = Q[:, :n].  Q2 = Q[:, n:] spans the left null space of A, so
Q2^T r = -Q2^T b is the same constraint with orthonormal rows: D = Q2^T
when A1 is singular, and the residual solvers' pipeline always runs on
that pair, with Q1 as the kernel basis of its D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import default_rank_tol, norm1, norm_inf

__all__ = [
    "MlmProblem",
    "ReducedSystem",
    "ResidualSplit",
    "SolveReport",
    "cost1",
    "reduce_problem",
    "recover",
    "split_by_residual",
]


@dataclass(frozen=True)
class MlmProblem:
    """The pair (A, b) with A of size m x n, m >= n >= 1, finite entries."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or b.ndim != 1:
            raise ValueError("expected a 2-d matrix and a 1-d right-hand side")
        m, n = A.shape
        if b.size != m:
            raise ValueError(f"matrix has {m} rows but the right-hand side has {b.size}")
        if not (m >= n >= 1):
            raise ValueError(f"need m >= n >= 1, got m={m}, n={n}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("problem data must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


def cost1(problem: MlmProblem, x) -> float:
    """The l1 cost ||A x - b||_1 that all solvers minimize."""
    return norm1(problem.A @ np.asarray(x, dtype=float) - problem.b)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: parameters, residual, cost and bookkeeping.

    ``residual`` is A x - b of the reported x, and ``cost`` its l1 norm.
    """

    x: np.ndarray
    residual: np.ndarray
    cost: float
    iterations: int
    runtime_s: float
    method: str
    converged: bool


@dataclass(frozen=True)
class ReducedSystem:
    """(D, w) plus the complete QR factors of A: A = Q[:, :n] R, R of size n x n."""

    D: np.ndarray
    w: np.ndarray
    Q: np.ndarray
    R: np.ndarray


def reduce_problem(problem: MlmProblem) -> ReducedSystem:
    """Build the reduced system for ``problem`` from one complete QR of A.

    The top n x n block A1 is used as-is when its singular values all exceed
    ``default_rank_tol(A)``; A then has full column rank too, since
    sigma_min(A) >= sigma_min(A1).  Otherwise D = Q2^T, an orthonormal basis
    of the left null space of A (D A = 0), and w = -D b, so D r = w still
    holds for every residual r = A x - b.  Raises ValueError when A itself
    has column rank below n (judged on the singular values of R).
    """
    A, b = problem.A, problem.b
    m, n = problem.m, problem.n
    Q, R = np.linalg.qr(A, mode="complete")
    R = R[:n]
    tol = default_rank_tol(A)
    if np.linalg.svd(A[:n], compute_uv=False)[-1] > tol:
        C = np.linalg.solve(A[:n].T, A[n:].T).T
        D = np.hstack([-C, np.eye(m - n)])
        return ReducedSystem(D=D, w=C @ b[:n] - b[n:], Q=Q, R=R)
    if np.linalg.svd(R, compute_uv=False)[-1] <= tol:
        raise ValueError("A has column rank below n; the l1 fit is not unique")
    D = Q[:, n:].T
    return ReducedSystem(D=D, w=-(D @ b), Q=Q, R=R)


def recover(problem: MlmProblem, reduced: ReducedSystem, r) -> np.ndarray:
    """Map an optimal residual back to parameters: x = R^-1 Q1^T (b + r)."""
    r = np.asarray(r, dtype=float)
    if r.shape != (problem.m,):
        raise ValueError(f"residual must have length {problem.m}, got shape {r.shape}")
    return np.linalg.solve(reduced.R, reduced.Q[:, :problem.n].T @ (problem.b + r))


@dataclass(frozen=True)
class ResidualSplit:
    """Rows of (A, b, r) partitioned by whether the residual entry vanishes."""

    zero_set: np.ndarray
    nonzero_set: np.ndarray
    A_z: np.ndarray
    A_star: np.ndarray
    b_z: np.ndarray
    b_star: np.ndarray
    r_z: np.ndarray
    r_star: np.ndarray
    m0: int


def split_by_residual(problem: MlmProblem, x, zero_tol: float = 1e-8) -> ResidualSplit:
    """Classify rows by |r_i| <= zero_tol * (1 + ||r||_inf)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError(f"x must have length {problem.n}, got shape {x.shape}")
    r = problem.A @ x - problem.b
    thresh = zero_tol * (1.0 + norm_inf(r))
    zero_mask = np.abs(r) <= thresh
    idx = np.arange(problem.m)
    return ResidualSplit(
        zero_set=idx[zero_mask],
        nonzero_set=idx[~zero_mask],
        A_z=problem.A[zero_mask],
        A_star=problem.A[~zero_mask],
        b_z=problem.b[zero_mask],
        b_star=problem.b[~zero_mask],
        r_z=r[zero_mask],
        r_star=r[~zero_mask],
        m0=int(np.count_nonzero(zero_mask)),
    )
