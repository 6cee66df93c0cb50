"""Dense two-phase primal simplex for standard-form linear programs.

Solves  min c^T y  subject to  A y = b, y >= 0  on a dense tableau.  The
pivot rule is Dantzig pricing with lowest-index tie-breaking; after a run
of degenerate pivots it falls back to Bland's rule (lowest eligible index)
until the objective strictly improves again, which rules out cycling while
keeping the iteration count practical.
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


def _iterate(T, basis, cost, enter_cols, maxiter, tol_rc, piv_tol, refactor):
    """Pivot until optimal/unbounded or the iteration budget is exhausted.

    Long pivot runs let rounding noise build up in the tableau, which can
    keep reduced costs spuriously negative at the optimum.  ``refactor``
    rebuilds the tableau from the original data for the current basis; it
    runs periodically and as an audit before optimality or unboundedness is
    declared.
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

        rc = cost[enter_cols] - cB @ T[:, enter_cols]
        if bland:
            eligible = np.flatnonzero(rc < -tol_rc)
            if eligible.size == 0:
                if fresh > 0:
                    refactor()
                    fresh = 0
                    continue
                return OPTIMAL, iters
            j_local = int(eligible[0])
        else:
            j_local = int(np.argmin(rc))
            if rc[j_local] >= -tol_rc:
                if fresh > 0:
                    refactor()
                    fresh = 0
                    continue
                return OPTIMAL, iters
        col = int(enter_cols[j_local])

        colvals = T[:, col]
        pos = np.flatnonzero(colvals > piv_tol)
        if pos.size == 0:
            if fresh > 0:
                refactor()
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
            refactor()
            fresh = 0
    return ITERATION_LIMIT, iters


def lp_solve(problem: LpStandardForm) -> LpSolution:
    """Solve a standard-form LP; infeasibility and unboundedness go in status.

    The l1-fitting programs are extremely degenerate (the optimum sits on a
    face with many zero basic variables), so each phase runs on a graded
    perturbation of the right-hand side, which makes the ratio tests strict.
    Reduced costs do not depend on the right-hand side, so optimality of the
    final basis carries over to the original data exactly; primal
    feasibility is re-verified on the original values and the phase is
    re-entered with a fresh perturbation in the rare case it fails.
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

    scale = max(1.0, float(np.max(np.abs(A))) if A.size else 0.0, float(np.max(np.abs(b))) if b.size else 0.0)
    piv_tol = 1e-10 * scale
    tol_rc = _FEAS_TOL * max(1.0, float(np.max(np.abs(c))) if c.size else 0.0)

    data = np.hstack([A, np.eye(m), b[:, None]])  # [columns | artificials | rhs]
    T = data.copy()
    basis = d + np.arange(m)
    enter_cols = np.arange(d)

    state = {"total": 0}

    def run_phase(cost, rc_tol):
        """Solve one phase on a perturbed rhs, then restore original values."""
        rows = T.shape[0]
        grades = 1.0 + (np.arange(rows) + 1.0) / rows
        status = OPTIMAL
        for attempt in range(4):
            budget = maxiter - state["total"]
            if budget <= 0:
                return ITERATION_LIMIT
            # perturb in the frame of the current basis so the start stays
            # feasible: basic values become value + delta * grade > 0
            floor = float(np.min(T[:, -1]))
            delta = 1e-6 * (1.0 + float(np.max(np.abs(T[:, -1])))) + (2.0 * -floor if floor < 0 else 0.0)
            pert = data.copy()
            pert[:, -1] = data[:, basis] @ (T[:, -1] + delta * grades)
            T[:, -1] += delta * grades

            def refactor(pert=pert):
                try:
                    T[:, :] = np.linalg.solve(pert[:, basis], pert)
                except np.linalg.LinAlgError:
                    pass

            status, its = _iterate(T, basis, cost, enter_cols, budget, rc_tol, piv_tol, refactor)
            state["total"] += its
            # restore the original right-hand side for the final basis
            try:
                T[:, :] = np.linalg.solve(data[:, basis], data)
            except np.linalg.LinAlgError:
                pass
            if status != OPTIMAL:
                return status
            if float(np.min(T[:, -1])) >= -_FEAS_TOL * scale:
                return OPTIMAL
            # perturbed optimum infeasible for the original data: retry
        return status

    # phase 1: drive the artificial variables to zero
    cost1 = np.concatenate([np.zeros(d), np.ones(m)])
    status = run_phase(cost1, _FEAS_TOL)
    if status == ITERATION_LIMIT:
        return LpSolution(_extract(T, basis, d), np.nan, ITERATION_LIMIT, state["total"])
    phase1_obj = float(cost1[basis] @ T[:, -1])
    if phase1_obj > _FEAS_TOL * (1.0 + float(np.sum(np.abs(b)))):
        return LpSolution(np.zeros(d), np.nan, INFEASIBLE, state["total"])

    # pivot basic artificials out; a row with no usable entry is redundant
    keep = np.ones(T.shape[0], dtype=bool)
    for i in range(T.shape[0]):
        if basis[i] < d:
            continue
        row_entries = np.abs(T[i, :d])
        j = int(np.argmax(row_entries))
        if row_entries[j] > piv_tol:
            _pivot(T, basis, i, j)
            state["total"] += 1
        else:
            keep[i] = False
    if not np.all(keep):
        T = T[keep].copy()
        basis = basis[keep]
        data = data[keep]

    cost2 = np.concatenate([c, np.zeros(m)])
    status = run_phase(cost2, tol_rc)

    y = _extract(T, basis, d)
    objective = float(c @ y)
    return LpSolution(y, objective, status, state["total"])


def _extract(T: np.ndarray, basis: np.ndarray, d: int) -> np.ndarray:
    y = np.zeros(d)
    real = basis < d
    y[basis[real]] = T[real, -1]
    return y
