"""Problem types and the residual-space reduction.

An overdetermined system A x = b (A of size m x n, m >= n) is mapped to the
pair (D, w) with

    D = [-A2 A1^+  I_{m-n}],   w = A2 A1^+ b(1:n) - b(n+1:m),

where A1 is the top n x n block of A and A2 the remaining rows (when that
block is singular, D is an orthonormal basis of the left null space of A
and w = -D b).  Every residual r = A x - b satisfies D r = w, and
conversely the minimum-l1 residual r* recovers the optimal parameters
through x* = A^+ (b + r*).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _pinv_and_rank, norm1, norm_inf, nullspace_basis

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
    """(D, w) plus the pseudoinverse of A used for recovery."""

    D: np.ndarray
    w: np.ndarray
    A_pinv: np.ndarray


def reduce_problem(problem: MlmProblem) -> ReducedSystem:
    """Build the reduced system for ``problem``.

    The top n x n block A1 is used as-is when it is nonsingular.  Otherwise
    D is an orthonormal basis of the left null space of A (D A = 0, from one
    SVD of A^T) and w = -D b, so D r = w still holds for every residual
    r = A x - b.  Raises ValueError when A itself has column rank below n.
    """
    A, b = problem.A, problem.b
    m, n = problem.m, problem.n
    A_pinv, rank = _pinv_and_rank(A)
    if rank < n:
        raise ValueError("A has column rank below n; the l1 fit is not unique")
    top_pinv, top_rank = _pinv_and_rank(A[:n])
    if top_rank < n:
        D = nullspace_basis(A.T).T
        return ReducedSystem(D=D, w=-(D @ b), A_pinv=A_pinv)
    C = A[n:] @ top_pinv
    D = np.hstack([-C, np.eye(m - n)])
    return ReducedSystem(D=D, w=C @ b[:n] - b[n:], A_pinv=A_pinv)


def recover(problem: MlmProblem, reduced: ReducedSystem, r) -> np.ndarray:
    """Map an optimal residual back to parameters: x = A^+ (b + r)."""
    r = np.asarray(r, dtype=float)
    if r.shape != (problem.m,):
        raise ValueError(f"residual must have length {problem.m}, got shape {r.shape}")
    return reduced.A_pinv @ (problem.b + r)


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
