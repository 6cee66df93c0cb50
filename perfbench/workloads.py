"""The benchmark's workloads: inputs from the pinned generator and one round of fits.

Every workload is a closed loop with one caller: the next fit starts when
the previous one returns.  A run repeats whole rounds, so every run sees the
same mix of sizes and methods.  A workload's ``min_rounds`` is both its least
number of rounds and its number of distinct input sets.  Round ``k`` of seed ``s`` draws instance
``j`` from generator seed ``s * 100000 + k * 100 + j``; its inputs depend
on nothing else.

The library is reached through module attributes at call time
(``reduction.reduce_problem``, ``residual_solvers.fit_via_residual``), so
the traced run can wrap those entry points from outside the library.
"""

from __future__ import annotations

import dataclasses

import numpy as np

import l1fit
from l1fit import bench, reduction, residual_solvers
from l1fit.residual_solvers import RESIDUAL_LABELS

NOISE_VARIANCE = 0.25
ITERATIVE_SOLVERS = ("gpsr", "tnipm", "homotopy", "ist", "adm", "pob")
# methods whose answer is a vertex; the rest stop at a tolerance
EXACT_METHODS = frozenset({"L1-LP", "L1-RES", "ORACLE"})


@dataclasses.dataclass(frozen=True)
class Instance:
    """One fit input: the problem and the ground-truth parameters ``p``."""

    key: str
    problem: l1fit.MlmProblem
    p: np.ndarray


def instance_seed(seed: int, k: int, j: int) -> int:
    return seed * 100_000 + k * 100 + j


def noisy_instance(m: int, n: int, sparsity: float, gen_seed: int) -> Instance:
    """``bench.gen_instance`` plus ``bench.add_sparse_noise``, as in the bench protocol."""
    problem, p = bench.gen_instance(m, n, gen_seed)
    b = bench.add_sparse_noise(problem.b, sparsity, NOISE_VARIANCE, gen_seed)
    return Instance(f"{m}x{n}/g{sparsity}/s{gen_seed}", l1fit.MlmProblem(problem.A, b), p)


class Square:
    """The paper's headline grid: 256x128, three sparsities, eight methods."""

    name = "square"
    methods = bench.DEFAULT_BENCH_METHODS
    sparsities = (0.0, 0.25, 0.75)
    min_rounds = 3
    # 3 rounds x 24 fits leave 11 fits above the 85th percentile
    tail_pct = 85

    def inputs(self, seed: int, k: int) -> list[Instance]:
        return [
            noisy_instance(256, 128, g, instance_seed(seed, k, j))
            for j, g in enumerate(self.sparsities)
        ]

    def run(self, inputs, fit) -> None:
        for inst in inputs:
            for label in self.methods:
                fit(inst, label, lambda: l1fit.solve(inst.problem, label))


class TallMultiRhs:
    """n = 128, m in {512, 1024}: one reduction per matrix, reused for several right-hand sides."""

    name = "tall-multi-rhs"
    sizes = (512, 1024)
    rhs_per_matrix = 2
    sparsity = 0.25
    methods = tuple(RESIDUAL_LABELS[s] for s in ITERATIVE_SOLVERS)
    min_rounds = 3
    # 3 rounds x 24 fits leave 11 fits above the 85th percentile
    tail_pct = 85

    def inputs(self, seed: int, k: int) -> list[tuple[Instance, list[Instance]]]:
        groups = []
        for i, m in enumerate(self.sizes):
            base = instance_seed(seed, k, 10 * i)
            problem, p = bench.gen_instance(m, 128, base)
            rhs = []
            for j in range(1, self.rhs_per_matrix + 1):
                b = bench.add_sparse_noise(problem.b, self.sparsity, NOISE_VARIANCE, base + j)
                rhs.append(Instance(f"{m}x128/g{self.sparsity}/s{base}+{j}",
                                    l1fit.MlmProblem(problem.A, b), p))
            groups.append((Instance(f"{m}x128/s{base}", problem, p), rhs))
        return groups

    def run(self, inputs, fit) -> None:
        for matrix, rhs in inputs:
            rs = reduction.reduce_problem(matrix.problem)
            for inst in rhs:
                # every residual r = A x - b satisfies D r = -D b, since D A = 0
                reduced = dataclasses.replace(rs, w=-(rs.D @ inst.problem.b))
                for name in ITERATIVE_SOLVERS:
                    fit(inst, RESIDUAL_LABELS[name],
                        lambda: residual_solvers.fit_via_residual(inst.problem, name, reduced=reduced))


class SmallBatch:
    """Many tiny instances (m 6..14, n 2..4) through all ten methods: fixed per-call cost."""

    name = "small-batch"
    methods = l1fit.ALL_METHODS
    per_round = 27
    sparsity = 0.25
    min_rounds = 7
    # 7 rounds x 270 fits leave 19 fits above the 99th percentile
    tail_pct = 99

    def inputs(self, seed: int, k: int) -> list[Instance]:
        return [
            noisy_instance(6 + j % 9, 2 + j % 3, self.sparsity, instance_seed(seed, k, j))
            for j in range(self.per_round)
        ]

    def run(self, inputs, fit) -> None:
        for inst in inputs:
            for label in self.methods:
                fit(inst, label, lambda: l1fit.solve(inst.problem, label))


WORKLOADS = {w.name: w for w in (Square(), TallMultiRhs(), SmallBatch())}

