"""Baselines that attack min ||A x - b||_1 without the residual reduction.

``fit_linprog`` is the l1 vertex simplex on (A, b); ``fit_perturbation`` is
the descent scheme that grows the set of zero residuals along kernel
directions and applies a correction step when the zero rows reach rank n,
with one SVD of each nonempty zero set serving both.
"""

from __future__ import annotations

import math
import numbers
import time

import numpy as np

from .linalg import _EPS, norm_inf
from .reduction import MlmProblem, SolveReport, reduce_problem
from .simplex import _l1_vertex, _least_squares_rows

__all__ = ["fit_linprog", "fit_perturbation"]

# a residual is zero when |r_i| <= _ZERO_TOL * (1 + ||r||_inf)
_ZERO_TOL = 1e-8


def fit_linprog(problem: MlmProblem) -> SolveReport:
    """Exact l1 fit by the vertex simplex on (A, b).

    The answer interpolates n rows of A x = b, so the residual carries at
    least n zeros.  The simplex starts at the n rows of smallest
    least-squares residual, most of which such an optimum interpolates, or,
    when the normal equations are singular or those rows fail the
    independence test, at the first n independent rows, by Gram-Schmidt.
    ``iterations`` counts basis changes; ``converged`` is the vertex's
    optimality certificate, False when the step budget ran out.
    """
    t0 = time.perf_counter()
    A, b = problem.A, problem.b
    vertex = _l1_vertex(A, b, _least_squares_rows(A, b))
    return SolveReport.of(problem, vertex.x, t0, iterations=vertex.steps, method="L1-LP",
                          converged=vertex.certified)


def _zero_mask(r: np.ndarray) -> np.ndarray:
    size = np.abs(r)
    return size <= _ZERO_TOL * (1.0 + float(size.max(initial=0.0)))


def _best_step(r_star: np.ndarray, Ad: np.ndarray) -> float:
    """Step over the breakpoint set minimizing ||r_* + v * Ad||_1.

    Ties on the objective prefer the smallest |v|, then the lowest index.
    """
    usable = (Ad != 0.0).nonzero()[0]
    if usable.size == 0:
        raise RuntimeError("kernel direction does not move any nonzero residual")
    steps = -r_star[usable] / Ad[usable]
    objectives = np.abs(r_star[:, None] + Ad[:, None] * steps).sum(axis=0)
    order = np.lexsort((usable, np.abs(steps), objectives))
    return float(steps[order[0]])


def fit_perturbation(
    problem: MlmProblem,
    c: float = 1.0,
    maxiter: int = 15,
) -> SolveReport:
    """Descent on kernel directions with the sign-based correction step.

    One SVD factors each nonempty zero set A_z, the rows of zero residual
    (an empty one has the kernel basis I and rank 0).  Below
    rank n (n dependent rows are not enough) a step along a kernel vector
    enlarges the zero set, at most m + n times per round; at rank n the
    same factors give A_z^+, and s = (A_z^T)^+ A_*^T sign(r_*) either
    certifies optimality (||s||_inf <= 1) or points to the zero rows whose
    residual signs to flip via x += c * A_z^+ u(s), which ends the round;
    c must be positive and finite.  At most ``maxiter`` rounds run; it
    must be an integer, since the loop ends when the round count equals
    it.  A round that starts at the x of an earlier round repeats the
    rounds since, so the run ends there and returns the x that round
    ``maxiter`` would end at, with iterations = maxiter and
    converged=False.  A breakdown (m + n kernel steps in one round, or a
    kernel direction that moves no nonzero residual) raises the rank
    ValueError of every route when ``reduce_problem`` rejects A, else
    RuntimeError.
    """
    if not 0 < c < math.inf:
        raise ValueError(f"correction scale c must be positive and finite, got {c!r}")
    if not isinstance(maxiter, numbers.Integral) or maxiter < 1:
        raise ValueError(f"maxiter must be an integer of at least 1, got {maxiter!r}")
    t0 = time.perf_counter()
    try:
        x, rounds, converged = _descent(problem.A, problem.b, c, maxiter)
    except RuntimeError:
        reduce_problem(problem)  # raises the rank ValueError when A fails the test
        raise
    return SolveReport.of(problem, x, t0, iterations=rounds, method="L1-PTB",
                          converged=converged)


def _descent(A, b, c, maxiter):
    """``fit_perturbation``'s rounds from x = 0: (x, rounds, converged)."""
    m, n = A.shape
    x = np.zeros(n)
    starts, seen = [x], {x.tobytes(): 1}  # starts[k - 1] is round k's start
    outer, grown = 1, 0
    converged = False
    while True:
        r = A @ x - b
        zmask = _zero_mask(r)
        free = ~zmask
        if zmask.any():
            A_z = A[zmask]
            U, sv, Vt = np.linalg.svd(A_z)
            # default_rank_tol(A_z), without its checks: once per zero set
            rank = np.count_nonzero(sv > _EPS * max(A_z.shape) * norm_inf(A_z))
        else:  # np.linalg.svd of a (0, n) matrix gives Vt = I exactly
            rank, Vt = 0, np.eye(n)
        if rank < n:
            grown += 1
            if grown > m + n:
                raise RuntimeError("zero-set growth stalled; residual ties too degenerate")
            d = Vt[rank]
            x = x + _best_step(r[free], A[free] @ d) * d
        else:
            A_z_pinv = (Vt.T / sv) @ U[:, :n].T
            # s = 0 certifies a fit that interpolates every row
            s = A_z_pinv.T @ (A[free].T @ np.sign(r[free]))
            if norm_inf(s) <= 1.0:
                converged = True
                break
            x = x + c * (A_z_pinv @ (np.abs(s) > 1.0).astype(float))
            if outer == maxiter:
                break
            outer, grown = outer + 1, 0
            j = seen.setdefault(x.tobytes(), outer)
            if j < outer:
                # a round reads only the x it starts at (grown restarts, and
                # outer is only compared with maxiter), and round `outer`
                # starts where round j did: with p = outer - j, round k + p
                # repeats round k for every k >= j, so none certifies or
                # raises.  The loop would stop at the start of round
                # maxiter + 1 > outer, the start of round j + (maxiter + 1 - j) mod p.
                return starts[j - 1 + (maxiter + 1 - j) % (outer - j)], maxiter, False
            starts.append(x)
    return x, outer, converged
