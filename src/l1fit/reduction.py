"""Problem types and the residual-space reduction.

An overdetermined system A x = b (A of size m x n, m >= n) is mapped to the
constraint pair (D, w) of  min ||r||_1  s.t.  D r = w,  where the null
space of D is range(A): every residual r = A x - b satisfies D r = w, and
conversely the minimum-l1 residual r* recovers the optimal parameters.
The paper writes D = [-A2 A1^+  I], w = A2 A1^+ b(1:n) - b(n+1:m), with A1
the top n x n block of A and A2 the remaining rows; any D with that null
space will do, and the paper's loses it when A1 is singular.  The
reduction takes one complete QR factorization A = Q [R; 0], Q = [Q1 Q2]
with Q1 of n columns, and builds D = Q2^T, whose rows are orthonormal,
with w = -D b.  Q1 is a kernel basis of that D, and x* = R^-1 Q1^T (b + r*).
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
    """The pair D = Q2^T, w = -D b and the complete QR factors of A.

    A = Q[:, :n] R with Q of size m x m and R of size n x n; D = Q[:, n:]^T
    is (m - n) x m with orthonormal rows and D A = 0.
    """

    D: np.ndarray
    w: np.ndarray
    Q: np.ndarray
    R: np.ndarray


def reduce_problem(problem: MlmProblem) -> ReducedSystem:
    """Build the reduced system for ``problem`` from one complete QR of A.

    D = Q2^T is an orthonormal basis of the left null space of A (D A = 0)
    and w = -D b, so D r = w holds for every residual r = A x - b.  Raises
    ValueError when A has column rank below n, judged on the singular
    values of R against ``default_rank_tol(A)``.
    """
    n = problem.n
    Q, R = np.linalg.qr(problem.A, mode="complete")
    R = R[:n]
    if np.linalg.svd(R, compute_uv=False)[-1] <= default_rank_tol(problem.A):
        raise ValueError("A has column rank below n; the l1 fit is not unique")
    D = np.ascontiguousarray(Q[:, n:].T)
    return ReducedSystem(D=D, w=-(D @ problem.b), Q=Q, R=R)


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
