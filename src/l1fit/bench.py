"""Benchmark harness: seeded instance generation, sweeps, CSV output.

Instances follow the evaluation protocol: A and the ground-truth vector p
are standard normal, b = A p, optionally corrupted by sparse Gaussian
noise.  Accuracy is the mean relative error ||x_hat - p||_2 / ||p||_2 over
N repetitions, timing is monotonic wall time around the solve call only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .linalg import norm2
from .reduction import MlmProblem
from .residual_solvers import SolverParams
from . import methods as _methods
from .rng import normals, raw_words

__all__ = [
    "SALT_ENTRIES",
    "SALT_NOISE_POSITIONS",
    "SALT_NOISE_VALUES",
    "DEFAULT_BENCH_METHODS",
    "ExperimentSpec",
    "BenchRecord",
    "gen_instance",
    "add_sparse_noise",
    "run_experiment",
    "write_csv",
    "CSV_HEADER",
]

# stream salts; part of the pinned generation recipe
SALT_ENTRIES = 1
SALT_NOISE_POSITIONS = 2
SALT_NOISE_VALUES = 3

# the perturbation baseline is opt-in: it is far off the optimum on most
# redundancy levels and would dominate the tables without adding signal
DEFAULT_BENCH_METHODS = (
    "L1-LP",
    "L1-RES",
    "L1-GPSR",
    "L1-TNIPM",
    "L1-HP",
    "L1-IST",
    "L1-ADM",
    "L1-POB",
)

EXPERIMENT_KINDS = ("noise_free", "sparse_noise", "drl_sweep")

CSV_HEADER = "method,m,n,sparsity,drl,mean_rel_err,mean_runtime_s,repeats,errors"


def gen_instance(m: int, n: int, seed: int) -> tuple[MlmProblem, np.ndarray]:
    """Standard-normal instance with consistent right-hand side b = A p.

    The first m*n normals of stream (seed, SALT_ENTRIES) fill A row-major;
    the next n fill p.
    """
    if not (m > n >= 2):
        raise ValueError(f"need m > n >= 2, got m={m}, n={n}")
    vals = normals(seed, m * n + n, salt=SALT_ENTRIES)
    A = vals[: m * n].reshape(m, n)
    p = vals[m * n :]
    return MlmProblem(A, A @ p), p


def add_sparse_noise(
    b, ratio: float, variance: float, seed: int, as_std: bool = False
) -> np.ndarray:
    """Perturb exactly floor(ratio*m + 0.5) entries with centered Gaussians.

    Positions come from a partial Fisher-Yates shuffle driven by stream
    (seed, SALT_NOISE_POSITIONS); values are std * normals from stream
    (seed, SALT_NOISE_VALUES), assigned in ascending position order.
    ``variance`` is a variance unless ``as_std`` reinterprets it as the
    standard deviation.
    """
    b = np.asarray(b, dtype=float)
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("sparsity ratio must lie in [0, 1]")
    if not 0.0 <= variance < math.inf:
        raise ValueError("noise variance must be finite and nonnegative")
    m = b.size
    k = int(math.floor(ratio * m + 0.5))
    out = b.copy()
    if k == 0:
        return out
    words = raw_words(seed, k, salt=SALT_NOISE_POSITIONS)
    idx = np.arange(m)
    for i in range(k):
        j = i + int(words[i] % np.uint64(m - i))
        idx[i], idx[j] = idx[j], idx[i]
    positions = np.sort(idx[:k])
    std = float(variance) if as_std else math.sqrt(variance)
    out[positions] += std * normals(seed, k, salt=SALT_NOISE_VALUES)
    return out


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark campaign: data recipe, grid and methods."""

    kind: str
    m: int = 256
    n: int = 128
    repeats: int = 30
    seed: int = 0
    sparsity_ratios: tuple = (0.25, 0.5, 0.75)
    noise_variance: float = 0.25
    drl_values: tuple = (1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
    methods: tuple = DEFAULT_BENCH_METHODS

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"kind must be one of {EXPERIMENT_KINDS}, got {self.kind!r}")
        if not self.m > self.n:
            raise ValueError("need m > n")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if any(not 0.0 <= g <= 1.0 for g in self.sparsity_ratios):
            raise ValueError("sparsity ratios must lie in [0, 1]")
        if not 0.0 <= self.noise_variance < math.inf:
            raise ValueError("noise variance must be finite and nonnegative")
        if any(v < 1.0 for v in self.drl_values):
            raise ValueError("redundancy levels must be at least 1")
        if not self.methods:
            raise ValueError("at least one method is required")


@dataclass(frozen=True)
class BenchRecord:
    method: str
    m: int
    n: int
    sparsity: float
    drl: float
    mean_rel_err: float
    mean_runtime_s: float
    repeats: int
    errors: int


def _configurations(spec: ExperimentSpec) -> list[tuple[int, int, float]]:
    if spec.kind == "noise_free":
        return [(spec.m, spec.n, 0.0)]
    if spec.kind == "sparse_noise":
        return [(spec.m, spec.n, g) for g in spec.sparsity_ratios]
    # redundancy sweep: m tracks the grid at fixed n, noise at the first ratio
    gamma = spec.sparsity_ratios[0] if spec.sparsity_ratios else 0.25
    return [(int(round(v * spec.n)), spec.n, gamma) for v in spec.drl_values]


def _one_repetition(method, m, n, gamma, variance, seed, params):
    problem, p = gen_instance(m, n, seed)
    if gamma > 0.0:
        problem = MlmProblem(problem.A, add_sparse_noise(problem.b, gamma, variance, seed))
    t0 = time.perf_counter()
    report = _methods.solve(problem, method, params)
    elapsed = time.perf_counter() - t0
    return norm2(report.x - p) / norm2(p), elapsed


def run_experiment(spec: ExperimentSpec, params: SolverParams | None = None) -> list[BenchRecord]:
    """Run the campaign; per-repetition seeds are spec.seed + repetition.

    Solver failures are counted per record instead of aborting the run.
    """
    params = params or SolverParams()
    records = []
    for method in spec.methods:
        for m, n, gamma in _configurations(spec):
            outcomes = []
            for rep in range(spec.repeats):
                try:
                    outcomes.append(_one_repetition(method, m, n, gamma, spec.noise_variance,
                                                    spec.seed + rep, params))
                except Exception:
                    outcomes.append(None)
            good = [o for o in outcomes if o is not None]
            errs = [e for e, _ in good]
            times = [t for _, t in good]
            records.append(
                BenchRecord(
                    method=method,
                    m=m,
                    n=n,
                    sparsity=gamma,
                    drl=m / n,
                    mean_rel_err=float(np.mean(errs)) if errs else float("nan"),
                    mean_runtime_s=float(np.mean(times)) if times else float("nan"),
                    repeats=spec.repeats,
                    errors=len(outcomes) - len(good),
                )
            )
    records.sort(key=lambda rec: (rec.method, rec.m, rec.n, rec.sparsity, rec.drl))
    return records


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(records, path) -> None:
    """17-significant-digit CSV with LF endings; columns per CSV_HEADER."""
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(
            ",".join(
                [
                    rec.method,
                    str(rec.m),
                    str(rec.n),
                    _fmt(rec.sparsity),
                    _fmt(rec.drl),
                    _fmt(rec.mean_rel_err),
                    _fmt(rec.mean_runtime_s),
                    str(rec.repeats),
                    str(rec.errors),
                ]
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
