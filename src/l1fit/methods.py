"""Single dispatch point from method labels to solver implementations.

Labels are case-insensitive; the lowercase forms double as CLI method
names (l1-lp, l1-ptb, l1-res, l1-gpsr, l1-tnipm, l1-hp, l1-ist, l1-adm,
l1-pob, oracle).
"""

from __future__ import annotations

from .direct import fit_linprog, fit_perturbation
from .oracle import oracle_solve
from .reduction import MlmProblem, SolveReport
from .residual_solvers import RESIDUAL_LABELS, SolverParams, fit_via_residual

__all__ = ["ALL_METHODS", "solve"]

_REV_BY_LABEL = {label: name for name, label in RESIDUAL_LABELS.items()}

ALL_METHODS = ("L1-LP", "L1-PTB") + tuple(sorted(_REV_BY_LABEL)) + ("ORACLE",)


def solve(
    problem: MlmProblem,
    method: str,
    params: SolverParams | None = None,
    perturbation_c: float | None = None,
    perturbation_maxiter: int | None = None,
) -> SolveReport:
    """Solve ``problem`` with the solver named by ``method``.

    The ``perturbation_*`` values go to ``fit_perturbation`` as ``c`` and
    ``maxiter`` when given; otherwise it takes its own defaults.
    """
    label = str(method).upper()
    if label == "L1-LP":
        return fit_linprog(problem)
    if label == "L1-PTB":
        given = {"c": perturbation_c, "maxiter": perturbation_maxiter}
        return fit_perturbation(problem, **{k: v for k, v in given.items() if v is not None})
    if label == "ORACLE":
        return oracle_solve(problem)
    if label in _REV_BY_LABEL:
        return fit_via_residual(problem, _REV_BY_LABEL[label], params)
    raise ValueError(
        f"unknown method {method!r}; valid methods: " + ", ".join(ALL_METHODS)
    )
