"""Dense primal simplex with a dual cleanup for standard-form linear programs.

Solves  min c^T y  subject to  A y = b, y >= 0  on a dense tableau.

The start is a crash basis.  Rows with a negative right-hand side are
negated; then a column whose only nonzero entry is positive is basic in its
row, the lowest such index winning.  In the split-variable programs of
l1-fitting these are the residual variables, the classic start of the l1
simplex (Barrodale & Roberts 1973).  Only rows left without such a column
get an artificial column, and only then does a first primal phase drive the
artificials to zero.

Each primal phase runs on a graded perturbation of the right-hand side,
which makes the ratio tests strict on these extremely degenerate programs.
The pivot rule is Dantzig pricing with lowest-index tie-breaking; after a
run of degenerate pivots it falls back to Bland's rule (lowest eligible
index) until the objective strictly improves again, which rules out cycling
while keeping the iteration count practical.  The original right-hand side
is then restored for the final basis.  Reduced costs do not depend on the
right-hand side, so that basis is still dual feasible, and dual simplex
pivots remove any primal infeasibility the restore leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

# consecutive non-improving pivots tolerated before switching to Bland's rule
_STALL_LIMIT = 30
# pivots between refactorizations of the tableau from the original data
_REFACTOR_EVERY = 512
# feasibility and reduced-cost tolerance
_FEAS_TOL = 1e-9
# pivot budget per row plus column of the constraint matrix
_PIVOTS_PER_DIM = 50


@dataclass(frozen=True)
class LpStandardForm:
    """min cost . y  s.t.  eq_matrix @ y = eq_rhs, y >= 0."""

    cost: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.cost, dtype=float)
        A = np.asarray(self.eq_matrix, dtype=float)
        b = np.asarray(self.eq_rhs, dtype=float)
        if A.ndim != 2 or c.ndim != 1 or b.ndim != 1:
            raise ValueError("expected a 2-d matrix and 1-d cost/rhs vectors")
        if A.shape != (b.size, c.size):
            raise ValueError(
                f"inconsistent shapes: matrix {A.shape}, rhs {b.size}, cost {c.size}"
            )
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
            raise ValueError("linear program data must be finite")
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "eq_matrix", A)
        object.__setattr__(self, "eq_rhs", b)


@dataclass(frozen=True)
class LpSolution:
    point: np.ndarray
    objective: float
    status: str
    iterations: int


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _refactor(T: np.ndarray, basis: np.ndarray, data: np.ndarray) -> None:
    """Rebuild the tableau of the current basis from ``data`` = [matrix | rhs]."""
    try:
        T[:, :] = np.linalg.solve(data[:, basis], data)
    except np.linalg.LinAlgError:
        pass


def _primal(T, basis, cost, d, data, maxiter, tol_rc, piv_tol):
    """Primal pivots over the first ``d`` columns until optimal or unbounded.

    Long pivot runs let rounding noise build up in the tableau, which can
    keep reduced costs spuriously negative at the optimum.  The tableau is
    rebuilt from ``data`` periodically and as an audit before optimality or
    unboundedness is declared.
    """
    iters = 0
    stall = 0
    bland = False
    prev_obj = np.inf
    fresh = 0  # pivots since the tableau was last rebuilt
    while iters < maxiter:
        cB = cost[basis]
        obj = float(cB @ T[:, -1])
        if obj < prev_obj - 1e-12 * (1.0 + abs(prev_obj)):
            stall = 0
            bland = False
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
        prev_obj = obj

        rc = cost[:d] - cB @ T[:, :d]
        if bland:
            eligible = np.flatnonzero(rc < -tol_rc)
            col = int(eligible[0]) if eligible.size else -1
        else:
            col = int(np.argmin(rc))
            if rc[col] >= -tol_rc:
                col = -1
        if col < 0:
            if fresh > 0:
                _refactor(T, basis, data)
                fresh = 0
                continue
            return OPTIMAL, iters

        colvals = T[:, col]
        pos = np.flatnonzero(colvals > piv_tol)
        if pos.size == 0:
            if fresh > 0:
                _refactor(T, basis, data)
                fresh = 0
                continue
            return UNBOUNDED, iters
        ratios = T[pos, -1] / colvals[pos]
        rmin = float(np.min(ratios))
        near = pos[ratios <= rmin + 1e-12 * (1.0 + abs(rmin))]
        row = int(near[np.argmin(basis[near])])  # lowest basic index leaves

        _pivot(T, basis, row, col)
        iters += 1
        fresh += 1
        if fresh >= _REFACTOR_EVERY:
            _refactor(T, basis, data)
            fresh = 0
    return ITERATION_LIMIT, iters


def _dual(T, basis, cost, d, data, maxiter, feas_tol, piv_tol):
    """Dual pivots over the first ``d`` columns until the basis is feasible.

    The most negative basic value leaves; the entering column has the
    smallest ratio of reduced cost to minus its entry in that row (lowest
    index on ties), which keeps the basis dual feasible.  A negative row
    without a negative entry proves the program infeasible.  The tableau is
    rebuilt from ``data`` before either verdict.
    """
    iters = 0
    fresh = 0
    while True:
        row = int(np.argmin(T[:, -1]))
        entries = T[row, :d]
        enter = np.flatnonzero(entries < -piv_tol)
        if T[row, -1] >= -feas_tol or enter.size == 0:
            if fresh > 0:
                _refactor(T, basis, data)
                fresh = 0
                continue
            return (OPTIMAL if T[row, -1] >= -feas_tol else INFEASIBLE), iters
        if iters >= maxiter:
            return ITERATION_LIMIT, iters
        rc = cost[enter] - cost[basis] @ T[:, enter]
        col = int(enter[np.argmin(np.maximum(rc, 0.0) / -entries[enter])])
        _pivot(T, basis, row, col)
        iters += 1
        fresh += 1


def _crash_basis(A: np.ndarray) -> np.ndarray:
    """Each row's start column, or -1 where the row needs an artificial.

    A column qualifies for a row when its only nonzero entry is positive and
    in that row; the lowest such index wins.
    """
    nonzero = A != 0.0
    cols = np.flatnonzero(np.count_nonzero(nonzero, axis=0) == 1)
    rows = np.argmax(nonzero[:, cols], axis=0)
    positive = A[rows, cols] > 0.0
    covered, first = np.unique(rows[positive], return_index=True)
    basis = np.full(A.shape[0], -1)
    basis[covered] = cols[positive][first]
    return basis


def lp_solve(problem: LpStandardForm) -> LpSolution:
    """Solve a standard-form LP; infeasibility and unboundedness go in status.

    Starts from the crash basis, runs a first phase only for rows that have
    no positive single-entry column, and ends each primal phase with dual
    pivots on the original right-hand side (see the module docstring).  The
    point returned with ``OPTIMAL`` is the basic solution of the final
    basis, feasible to 1e-9 times the data scale.  ``iterations`` counts
    every pivot.
    """
    A = np.array(problem.eq_matrix, dtype=float, copy=True)
    b = np.array(problem.eq_rhs, dtype=float, copy=True)
    c = problem.cost
    m, d = A.shape
    maxiter = _PIVOTS_PER_DIM * (m + d)
    if m == 0:  # no constraints: the origin is optimal unless a cost is negative
        if c.size and float(np.min(c)) < -_FEAS_TOL:
            return LpSolution(np.zeros(d), np.nan, UNBOUNDED, 0)
        return LpSolution(np.zeros(d), 0.0, OPTIMAL, 0)

    flip = b < 0.0
    A[flip] *= -1.0
    b[flip] *= -1.0

    scale = max(1.0, float(np.max(np.abs(A))) if A.size else 0.0, float(np.max(np.abs(b))))
    piv_tol = 1e-10 * scale
    tol_rc = _FEAS_TOL * max(1.0, float(np.max(np.abs(c))) if c.size else 0.0)

    basis = _crash_basis(A)
    open_rows = np.flatnonzero(basis < 0)
    k = open_rows.size
    artificials = np.zeros((m, k))
    artificials[open_rows, np.arange(k)] = 1.0
    basis[open_rows] = d + np.arange(k)
    data = np.hstack([A, artificials, b[:, None]])  # [columns | artificials | rhs]
    T = data / data[np.arange(m), basis][:, None]  # the start basis is diagonal
    total = 0

    def run_phase(cost, rc_tol):
        """Primal pivots on a perturbed rhs, then dual pivots on the original."""
        grades = 1.0 + (np.arange(T.shape[0]) + 1.0) / T.shape[0]
        # perturb in the frame of the current basis so the start stays
        # feasible: basic values become value + delta * grade > 0
        floor = float(np.min(T[:, -1]))
        delta = 1e-6 * (1.0 + float(np.max(np.abs(T[:, -1])))) + (2.0 * -floor if floor < 0 else 0.0)
        T[:, -1] += delta * grades
        pert = data.copy()
        pert[:, -1] = data[:, basis] @ T[:, -1]
        status, its = _primal(T, basis, cost, d, pert, maxiter - total, rc_tol, piv_tol)
        _refactor(T, basis, data)
        if status != OPTIMAL:
            return status, its
        status, dual_its = _dual(T, basis, cost, d, data, maxiter - total - its, _FEAS_TOL * scale, piv_tol)
        return status, its + dual_its

    if k:
        # phase 1: drive the artificial variables to zero
        cost1 = np.concatenate([np.zeros(d), np.ones(k)])
        status, its = run_phase(cost1, _FEAS_TOL)
        total += its
        if status == ITERATION_LIMIT:
            return LpSolution(_extract(T, basis, d), np.nan, ITERATION_LIMIT, total)
        if status == INFEASIBLE or float(cost1[basis] @ T[:, -1]) > _FEAS_TOL * (1.0 + float(np.sum(b))):
            return LpSolution(np.zeros(d), np.nan, INFEASIBLE, total)

        # pivot basic artificials out; a row with no usable entry is redundant
        keep = np.ones(m, dtype=bool)
        for i in np.flatnonzero(basis >= d):
            row_entries = np.abs(T[i, :d])
            j = int(np.argmax(row_entries))
            if row_entries[j] > piv_tol:
                _pivot(T, basis, i, j)
                total += 1
            else:
                keep[i] = False
        # the artificial columns never enter again
        cols = np.r_[:d, d + k]
        T = T[np.ix_(keep, cols)]
        data = data[np.ix_(keep, cols)]
        basis = basis[keep]

    status, its = run_phase(c, tol_rc)
    total += its
    if status == INFEASIBLE:
        return LpSolution(np.zeros(d), np.nan, INFEASIBLE, total)
    y = _extract(T, basis, d)
    return LpSolution(y, float(c @ y), status, total)


def _extract(T: np.ndarray, basis: np.ndarray, d: int) -> np.ndarray:
    y = np.zeros(d)
    real = basis < d
    y[basis[real]] = T[real, -1]
    return y
