"""Problem types and the residual-space reduction.

An overdetermined system A x = b (A of size m x n, m >= n) is mapped to the
constraint pair (D, w) of  min ||r||_1  s.t.  D r = w,  where the null
space of D is range(A): every residual r = A x - b satisfies D r = w, and
conversely the minimum-l1 residual r* recovers the optimal parameters.
The paper writes D = [-A2 A1^+  I], w = A2 A1^+ b(1:n) - b(n+1:m), with A1
the top n x n block of A and A2 the remaining rows; any D with that null
space will do, and the paper's loses it when A1 is singular.  The
reduction takes one thin factorization A = Q R, Q of size m x n with
orthonormal columns and R of size n x n: Q is a kernel basis of any such
D, the constraint set is r0 + range(Q) with r0 = Q (Q^T b) - b, and
x* = R^-1 Q^T (b + r*).  R is the Householder or Gram-Schmidt triangle,
or S V^T on the small branch below.  An orthonormal D itself,
D = Q2^T from a complete basis [Q Q2], is built only on request
(``ReducedSystem.D``); the fit path never forms it.

A has full column rank when sigma_min(A), read from an SVD of A or of its
Householder factor R, exceeds ``default_rank_tol(A)``.  When m n^2 is at
most ``_SVD_WORK``, one thin SVD A = Q S V^T gives Q, R = S V^T and that
test in one LAPACK call, against three for Householder QR (its factor,
then its Q) and an SVD of R (Golub & Van Loan, Matrix Computations,
sections 2.5 and 5.4).  The SVD takes more flops than the QR, so it wins
only while the per-call cost dominates; ``tools/reduce_sizes.py`` times
the two over a grid of shapes.  A Cholesky factorization of A^T A - mu I
that succeeds proves full rank, for a shift mu chosen above the rounding
errors of forming and factoring the Gram matrix, of Householder QR and of
the SVD (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
ch. 10 and Thm 19.4).  It also bounds kappa(A), and then block
Gram-Schmidt with reorthogonalization on Householder panels gives the thin
QR in about half the time of LAPACK's above one panel of columns; below
it, and when the certificate fails, Householder QR and an SVD of R decide.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import _EPS, _rank_error, default_rank_tol, norm1

_TINY = float(np.finfo(float).tiny)
# the shift mu = tol^2 + _GRAM_SHIFT m n eps trace(A^T A); see _certified_full_rank
_GRAM_SHIFT = 4.0
# columns per block Gram-Schmidt panel (_block_qr)
_PANEL = 32
# reduce_problem factors A by one thin SVD when m n^2 is at most this
_SVD_WORK = 3072

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
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
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
    ``runtime_s`` is the wall time from the route's start, once its
    options are checked, to its report, the residual included.  Every
    route builds its report with ``SolveReport.of``.
    """

    x: np.ndarray
    residual: np.ndarray
    cost: float
    iterations: int
    runtime_s: float
    method: str
    converged: bool

    @classmethod
    def of(cls, problem: MlmProblem, x, t0: float, *, iterations: int, method: str,
           converged: bool) -> SolveReport:
        """The report of x on ``problem``, timed from ``t0`` (``time.perf_counter``)."""
        residual = problem.A @ x - problem.b
        return cls(x=x, residual=residual, cost=norm1(residual), iterations=iterations,
                   runtime_s=time.perf_counter() - t0, method=method,
                   converged=bool(converged))


@dataclass(frozen=True)
class ReducedSystem:
    """Thin factors A = Q R: Q of size m x n with orthonormal columns, R of size n x n.

    R is triangular from QR, or S V^T from a thin SVD A = Q S V^T on small
    inputs (``reduce_problem``).

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


def _certified_full_rank(A: np.ndarray, tol: float) -> bool:
    """Whether a Cholesky factorization of A^T A - mu I proves full column rank.

    True proves that the SVD test of ``reduce_problem`` on the Householder
    factor R of A passes, sigma_min(R) > tol, with room to spare; False
    means only that the certificate is inconclusive.
    """
    # With u = eps/2 and gamma_k = k u / (1 - k u), the computed Gram matrix
    # is G = A^T A + E1 with |E1| <= gamma_m |A|^T |A| (dot products of length
    # m), so ||E1||_2 <= gamma_m T, T = ||A||_F^2 = trace(A^T A); lowering its
    # diagonal by mu adds E2, ||E2||_2 <= u (max G_ii + mu).  A Cholesky
    # factorization that runs to completion gives L L^T = G - mu I + E2 + E3
    # with |E3| <= gamma_{n+1} |L| |L|^T (Higham, Thm 10.3), and ||L||_F^2 =
    # trace(L L^T) <= trace(G) / (1 - gamma_{n+1}), so ||E3||_2 <=
    # gamma_{n+1} T (1 + O(n u)).  As L L^T is positive definite,
    # sigma_min(A)^2 >= mu - ||E1 + E2 + E3||_2 >= mu - (m + n + 2) u T, to
    # first order.  With mu = tol^2 + 4 m n eps T = tol^2 + 8 m n u T that
    # leaves sigma_min(A)^2 - tol^2 >= (8 m n - m - n - 2) u T >= 4 m n u T
    # (from m = n = 1 on), and since sigma_min(A) + tol <= 2 ||A||_F,
    # sigma_min(A) - tol >= 2 m n u ||A||_F.  Householder QR computes R
    # exactly for some A + dA, ||dA||_F <= gamma~_mn ||A||_F (Higham,
    # Thm 19.4; gamma~_k = c k u / (1 - c k u) with a small constant c), so
    # to first order, taking c = 1, sigma_min(R) >= sigma_min(A) - m n u
    # ||A||_F.  That spends half the margin, and the other half, m n u
    # ||A||_F >= n^2 u ||R||_2, covers the rounding error of a backward-
    # stable SVD of R (taken as n^2 u ||R||_2), whose test then passes as
    # well.  The same bound, sigma_min(A)^2 > 2 m n eps ||A||_F^2, caps
    # kappa(A) below 1 / sqrt(2 m n eps), about 2.6e5 at 256 x 128, for
    # ``_block_qr``.  When eps T exceeds the smallest normal number,
    # underflow in tol^2, G or the factorization (absolute errors of order
    # eps * tiny per operation) stays far inside that margin; a nonfinite mu
    # means overflow, and both cases are left to the SVD.
    m, n = A.shape
    with np.errstate(over="ignore"):  # an overflow shows as a nonfinite mu
        G = A.T @ A
    trace = float(G.trace())
    mu = tol * tol + _GRAM_SHIFT * m * n * _EPS * trace
    if not (math.isfinite(mu) and _EPS * trace > _TINY):
        return False
    G.flat[:: n + 1] -= mu
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return True


def _block_qr(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR of A by reorthogonalized block classical Gram-Schmidt (BCGS2).

    Panels of ``_PANEL`` columns: each is projected off the Q found so far
    twice, then factored by Householder QR (Barlow & Smoktunowicz, Numer.
    Math. 2013, whose loss of orthogonality is O(eps) while kappa(A) eps is
    small).  ``reduce_problem`` calls it for n > ``_PANEL`` only.
    """
    m, n = A.shape
    Q, R = np.empty((m, n)), np.zeros((n, n))
    for j in range(0, n, _PANEL):
        e = min(j + _PANEL, n)
        W = A[:, j:e]
        if j:
            Qp = Q[:, :j]
            S = Qp.T @ W
            W = W - Qp @ S
            S2 = Qp.T @ W
            W -= Qp @ S2
            R[:j, j:e] = S + S2
        Q[:, j:e], R[j:e, j:e] = np.linalg.qr(W)
    return Q, R


def reduce_problem(problem: MlmProblem) -> ReducedSystem:
    """Factor A = Q R, Q orthonormal, for the reduce -> solve -> recover pipeline.

    Raises ValueError when A has column rank below n: sigma_min(A) at most
    ``default_rank_tol(A)``.  When m n^2 <= ``_SVD_WORK`` one thin SVD
    A = Q S V^T gives Q, R = S V^T and sigma_min(A) = S[-1].  Above
    ``_PANEL`` columns a Cholesky certificate on A^T A
    (``_certified_full_rank``) may prove full rank first; the factors then
    come from block Gram-Schmidt (``_block_qr``), whose Q the certificate's
    bound on kappa(A) keeps orthonormal to O(eps), as Householder QR's is.
    Otherwise Householder QR (``np.linalg.qr``) factors A and the smallest
    singular value of R decides, so the verdict is the SVD's on every input.
    """
    A = problem.A
    m, n = A.shape
    tol = default_rank_tol(A)
    if m * n * n <= _SVD_WORK:
        Q, sv, Vt = np.linalg.svd(A, full_matrices=False)
        if sv[-1] <= tol:
            raise _rank_error()
        R = sv[:, None] * Vt
    elif n > _PANEL and _certified_full_rank(A, tol):
        Q, R = _block_qr(A)
    else:
        Q, R = np.linalg.qr(A)
        if np.linalg.svd(R, compute_uv=False)[-1] <= tol:
            raise _rank_error()
    return ReducedSystem(Q=Q, R=R)


def recover(problem: MlmProblem, reduced: ReducedSystem, r) -> np.ndarray:
    """Map an optimal residual back to parameters: x = R^-1 Q^T (b + r)."""
    r = np.asarray(r, dtype=float)
    if r.shape != (problem.m,):
        raise ValueError(f"residual must have length {problem.m}, got shape {r.shape}")
    return np.linalg.solve(reduced.R, reduced.Q.T @ (problem.b + r))
