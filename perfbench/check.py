"""Exact reference optima and the verdict on each fit.

The reference is HiGHS dual simplex (``scipy.optimize.linprog``,
``method="highs-ds"``) on the direct LP with free ``x``:

    min 1^T (u + v)   s.t.   A x - u + v = b,   u, v >= 0.

It does not go through l1fit, its cost is recomputed from its ``x``, and it
is never timed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

# acceptance criteria 1 and 2 (tests/test_acceptance.py) pin these bounds: on the
# cost relative to the optimum, and on ||x - x*|| / ||x*|| for noise-free data
EXACT_TOL, ITERATIVE_TOL = 1e-9, 1e-3
EXACT_XTOL, ITERATIVE_XTOL = 1e-10, 1e-6
# an optimum below this share of sum(|A| |x| + |b|) is 0 up to rounding: the
# system is consistent, its cost carries no signal and x itself is compared
ZERO_SHARE = 1e-12

OK, NONCONVERGED, FAILED, UNCHECKED = "ok", "nonconverged", "failed", "unchecked"


@dataclass(frozen=True)
class Reference:
    x: np.ndarray
    cost: float
    # rounding of the cost sum: n eps sum(|A| |x| + |b|)
    floor: float
    consistent: bool


def reference(problem) -> Reference | None:
    """The exact optimum, or None when HiGHS does not report one."""
    A, b = problem.A, problem.b
    m, n = A.shape
    eye = sparse.identity(m, format="csc")
    res = linprog(
        np.concatenate([np.zeros(n), np.ones(2 * m)]),
        A_eq=sparse.hstack([sparse.csc_matrix(A), -eye, eye], format="csc"),
        b_eq=b,
        bounds=[(None, None)] * n + [(0, None)] * (2 * m),
        method="highs-ds",
    )
    if res.status != 0:
        return None
    x = res.x[:n]
    cost = float(np.sum(np.abs(A @ x - b)))
    scale = float(np.sum(np.abs(A) @ np.abs(x) + np.abs(b)))
    return Reference(x=x, cost=cost, floor=n * np.finfo(float).eps * scale,
                     consistent=cost <= ZERO_SHARE * scale)


def cost_gap(problem, x, ref: Reference) -> float:
    """Cost above the optimum, beyond rounding, relative to it; nan on a consistent system."""
    if ref.consistent:
        return float("nan")
    cost = float(np.sum(np.abs(problem.A @ x - problem.b)))
    return max(0.0, cost - ref.cost - ref.floor) / ref.cost


def x_error(x, ref: Reference) -> float:
    return float(np.linalg.norm(x - ref.x) / np.linalg.norm(ref.x))


def verdict(exact: bool, report, problem, ref: Reference | None) -> str:
    """``ok``, ``nonconverged`` (honest), ``failed`` or ``unchecked`` (no reference).

    ``report`` is None when the fit raised.  A fit fails when it raised or
    when it claims convergence outside the tolerance: on its cost, or on its
    ``x`` where the system is consistent.
    """
    if ref is None:
        return UNCHECKED
    if report is None:
        return FAILED
    if not report.converged:
        return NONCONVERGED
    if ref.consistent:
        within = x_error(report.x, ref) <= (EXACT_XTOL if exact else ITERATIVE_XTOL)
    else:
        within = cost_gap(problem, report.x, ref) <= (EXACT_TOL if exact else ITERATIVE_TOL)
    return OK if within else FAILED
