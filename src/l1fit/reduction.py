"""Problem types and the residual-space reduction.

An overdetermined system A x = b (A of size m x n, m >= n) is mapped to the
constraint pair (D, w) of  min ||r||_1  s.t.  D r = w,  where the null
space of D is range(A): every residual r = A x - b satisfies D r = w, and
conversely the minimum-l1 residual r* recovers the optimal parameters.
The paper writes D = [-A2 A1^+  I], w = A2 A1^+ b(1:n) - b(n+1:m), with A1
the top n x n block of A and A2 the remaining rows; any D with that null
space will do, and the paper's loses it when A1 is singular.  The
reduction takes one thin QR factorization A = Q R, Q of size m x n with
orthonormal columns: Q is a kernel basis of any such D, the constraint
set is r0 + range(Q) with r0 = Q (Q^T b) - b, and x* = R^-1 Q^T (b + r*).
An orthonormal D itself, D = Q2^T from a complete basis [Q Q2], is built
only on request (``ReducedSystem.D``); the fit path never forms it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import default_rank_tol, norm1

__all__ = [
    "MlmProblem",
    "ReducedSystem",
    "SolveReport",
    "cost1",
    "reduce_problem",
    "recover",
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
    """The thin QR factors A = Q R of A, Q of size m x n, R of size n x n.

    ``D`` is the paper's constraint operator on request: Q2^T, with Q2 an
    orthonormal basis of the complement of range(Q), so D is (m - n) x m
    with orthonormal rows and D A = 0.
    """

    Q: np.ndarray
    R: np.ndarray
    # read by nothing in l1fit; it goes once the tall benchmark workload
    # passes ``reduced`` as reduce_problem returns it
    w: np.ndarray | None = None

    @cached_property
    def D(self) -> np.ndarray:
        """Q2^T, from one complete QR factorization of Q."""
        basis = np.linalg.qr(self.Q, mode="complete")[0]
        return np.ascontiguousarray(basis[:, self.Q.shape[1]:].T)


def reduce_problem(problem: MlmProblem) -> ReducedSystem:
    """Factor A = Q R by one thin QR for the reduce -> solve -> recover pipeline.

    Raises ValueError when A has column rank below n, judged on the
    singular values of R against ``default_rank_tol(A)``.
    """
    Q, R = np.linalg.qr(problem.A)
    if np.linalg.svd(R, compute_uv=False)[-1] <= default_rank_tol(problem.A):
        raise ValueError("A has column rank below n; the l1 fit is not unique")
    return ReducedSystem(Q=Q, R=R)


def recover(problem: MlmProblem, reduced: ReducedSystem, r) -> np.ndarray:
    """Map an optimal residual back to parameters: x = R^-1 Q^T (b + r)."""
    r = np.asarray(r, dtype=float)
    if r.shape != (problem.m,):
        raise ValueError(f"residual must have length {problem.m}, got shape {r.shape}")
    return np.linalg.solve(reduced.R, reduced.Q.T @ (problem.b + r))
