"""Minimum l1-norm solutions of overdetermined linear systems.

The library reduces min ||A x - b||_1 to a basis-pursuit problem on the
residual vector, offers seven interchangeable residual solvers plus two
direct baselines and an exact brute-force oracle, and ships a benchmark
harness with a pinned, bit-reproducible random-instance generator.
"""

from .bench import BenchRecord, ExperimentSpec, add_sparse_noise, gen_instance, run_experiment, write_csv
from .direct import fit_linprog, fit_perturbation
from .linalg import nullspace_basis, pinv, soft
from .methods import ALL_METHODS, solve
from .oracle import oracle_solve
from .reduction import (
    MlmProblem,
    ReducedSystem,
    SolveReport,
    cost1,
    recover,
    reduce_problem,
)
from .residual_solvers import (
    ResidualSolution,
    SolverParams,
    fit_via_residual,
    residual_adm,
    residual_gpsr,
    residual_homotopy,
    residual_ist,
    residual_linprog,
    residual_pob,
    residual_tnipm,
)
from .simplex import l1_vertex

__version__ = "0.1.0"

__all__ = [
    "ALL_METHODS",
    "BenchRecord",
    "ExperimentSpec",
    "MlmProblem",
    "ReducedSystem",
    "ResidualSolution",
    "SolveReport",
    "SolverParams",
    "add_sparse_noise",
    "cost1",
    "fit_linprog",
    "fit_perturbation",
    "fit_via_residual",
    "gen_instance",
    "l1_vertex",
    "nullspace_basis",
    "oracle_solve",
    "pinv",
    "recover",
    "reduce_problem",
    "residual_adm",
    "residual_gpsr",
    "residual_homotopy",
    "residual_ist",
    "residual_linprog",
    "residual_pob",
    "residual_tnipm",
    "run_experiment",
    "soft",
    "solve",
    "write_csv",
]
