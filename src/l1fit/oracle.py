"""Exact brute-force minimizer of ||A x - b||_1 for small instances.

Some optimal solution interpolates n of the m rows (for generic data,
exactly n), so enumerating all nonsingular n-row subsets and solving each
square system exactly yields the global minimum.  This is the ground truth
the solver tests compare against.

The size guard, m <= 14 and n <= 4, caps the work at C(14, 4) = 1001
subsets, so every subset is stacked into one (B, n, n) array and
evaluated by one stacked ``det`` and ``solve``.  The subsets of a shape
are enumerated once and cached (``_subsets``).
"""

from __future__ import annotations

import functools
import itertools
import time

import numpy as np

from .reduction import MlmProblem, SolveReport, reduce_problem
from .simplex import _unit_shift

__all__ = ["oracle_solve"]

_DET_RTOL = 1e-12
_MAX_M = 14
_MAX_N = 4


@functools.lru_cache(maxsize=_MAX_M * _MAX_N)  # every shape the guard admits
def _subsets(m, n):
    """Every n-row subset of range(m), one per row, in lexicographic order; read-only, as cached."""
    subsets = itertools.chain.from_iterable(itertools.combinations(range(m), n))
    rows = np.fromiter(subsets, dtype=np.intp).reshape(-1, n)
    rows.flags.writeable = False
    return rows


def oracle_solve(problem: MlmProblem) -> SolveReport:
    """Enumerate every n-row subset; return the interpolant of least l1 cost.

    Subsets whose determinant is below 1e-12 times the Hadamard bound are
    skipped as singular.  The test reads A scaled by a power of two
    (``_unit_shift``), which is exact, so that neither the determinant nor
    the bound overflows or vanishes when A is far out of range; the bound
    is a product of the scaled A's row norms, each taken once.  The answer
    is the first minimal computed cost in lexicographic order of the
    subsets, which are enumerated once per shape (``_subsets``).
    ``iterations`` counts the nonsingular subsets.  Guarded to m <= 14,
    n <= 4.  When every subset is skipped, it raises the rank ValueError of
    every route if ``reduce_problem`` rejects A, else RuntimeError.
    """
    m, n = problem.m, problem.n
    if m > _MAX_M or n > _MAX_N:
        raise ValueError(
            f"instance {m}x{n} exceeds the exhaustive-search guard ({_MAX_M}x{_MAX_N})"
        )
    A, b = problem.A, problem.b
    t0 = time.perf_counter()

    rows = _subsets(m, n)
    A_s = np.ldexp(A, _unit_shift(A))
    scale = np.sqrt((A_s * A_s).sum(axis=1))[rows].prod(axis=1)  # the row norms
    keep = np.abs(np.linalg.det(A_s[rows])) > _DET_RTOL * scale
    if not keep.any():
        reduce_problem(problem)  # raises the rank ValueError when A fails the test
        raise RuntimeError("every n-row subset is numerically singular")
    rows = rows[keep]
    X = np.linalg.solve(A[rows], b[rows, None])[..., 0]
    costs = np.abs(X @ A.T - b).sum(axis=1)

    return SolveReport.of(problem, X[int(costs.argmin())], t0, iterations=len(X),
                          method="ORACLE", converged=True)
