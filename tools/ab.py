"""Time two trees' fits of the benchmark's inputs in one process, interleaved fit by fit.

    python3 tools/ab.py OLD_SRC NEW_SRC [--workloads small-batch square tall-multi-rhs] [--seeds 1 7]
                        [--labels L1-LP ORACLE]

OLD_SRC and NEW_SRC are ``src`` directories.  Each tree's ``l1fit`` is
imported under its own name, so both run in this process with BLAS on one
thread.  The inputs come from this checkout's ``perfbench/workloads.py``
(pinned generator, so any tree gets the same bytes), as in
``tools/replay.py``: every round of each seed through each workload's
methods, and for ``tall-multi-rhs`` (not run by default) round 0 of each
seed through ``bench.DEFAULT_BENCH_METHODS``, whose walks are the longest.
``--labels`` keeps only the fits of those labels (any case), so that one
label's path can be timed alone; a workload left with no fit is skipped.
Every fit (input, label) goes through each tree's ``l1fit.solve``
once in each of ``PASSES`` passes.  Which tree goes first on a fit
alternates pass by pass, and the pass count is even, so each tree goes
first equally often on every fit.  The tree that starts a fit's first pass
is drawn at random (pinned): a fixed pattern such as even fits old-first
would start each label on the same side every time, since a workload's
labels repeat in a fixed order, and two copies of one tree would then read
ratios away from 1 (ORACLE 1.05 and L1-LP 0.97 on small-batch seed 1).
A fit's ratio is
its NEW time over its OLD time, each summed over the passes; below 1 the
new tree is faster.

Per workload and label, and then per workload, it prints the geometric mean
of the ratios with a 95 % bootstrap interval over fits, the ratio of total
times, and the number of fits more than 1.2x slower and more than 1.2x
faster.  Answers are not compared here; ``tools/replay.py`` does that.

The bootstrap interval covers the spread over the fits of this one run
only, not the spread between runs: a label whose code did not change can
read 1-2 % away from 1 in another run.  So these ratios show where a
change pays, and a gate on the benchmark's metrics rests on alternating
``perfbench/run.py`` pairs of the two trees.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_WORKLOADS = ("small-batch", "square")  # the workloads that fit through l1fit.solve
TALL = "tall-multi-rhs"  # fit here through l1fit.solve, as tools/replay.py fits it
MOVED = 1.2  # a fit counts as slower or faster beyond this ratio
PASSES = 4  # even: each tree goes first on every fit in half of them
BOOTSTRAP_REPS = 1000


def load(src, name):
    """The ``l1fit`` package under the directory ``src``, imported as ``name``."""
    init = Path(src).resolve() / "l1fit" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _seconds(tree, problem, label):
    t0 = time.perf_counter()
    try:
        tree.solve(problem, label)
    except (ValueError, RuntimeError):
        pass  # a raising fit is timed to its raise, as the benchmark times it
    return time.perf_counter() - t0


def time_fits(trees, fits, passes):
    """Seconds of each fit (instance, label) on each of the two trees: a (len(fits), 2) array.

    Each entry is summed over ``passes``, which must be even; fit i goes to
    tree (order_i + pass) % 2 first, with order_i a pinned random bit.
    """
    import numpy as np  # here, not at the top: main pins BLAS to one thread first

    if passes < 2 or passes % 2:
        raise ValueError(f"passes must be even and at least 2, got {passes}")
    problems = [[tree.MlmProblem(inst.problem.A, inst.problem.b) for tree in trees]
                for inst, _ in fits]
    warm = {label: pair for (_, label), pair in zip(fits, problems)}
    for label, pair in warm.items():  # first calls pay one-time costs
        for tree, problem in zip(trees, pair):
            _seconds(tree, problem, label)
    order = np.random.default_rng(0).integers(0, 2, len(fits))
    secs = np.zeros((len(fits), 2))
    for p in range(passes):
        for i, ((_, label), pair) in enumerate(zip(fits, problems)):
            first = (order[i] + p) % 2
            for side in (first, 1 - first):
                secs[i, side] += _seconds(trees[side], pair[side], label)
    return secs


def summary(name, secs):
    """One line: the new/old ratios of the rows of ``secs`` (old, new) over fits."""
    import numpy as np

    ratio = secs[:, 1] / secs[:, 0]
    logs = np.log(ratio)
    rng = np.random.default_rng(0)
    means = np.sort(rng.choice(logs, size=(BOOTSTRAP_REPS, logs.size)).mean(axis=1))
    lo, hi = np.exp(means[[int(0.025 * BOOTSTRAP_REPS), int(0.975 * BOOTSTRAP_REPS) - 1]])
    return (f"{name:<24} fits {ratio.size:>5}  gmean {np.exp(logs.mean()):.3f} "
            f"[{lo:.3f}, {hi:.3f}]  total {secs[:, 1].sum() / secs[:, 0].sum():.3f}  "
            f"slower>{MOVED}x {int(np.count_nonzero(ratio > MOVED))}  "
            f"faster>{MOVED}x {int(np.count_nonzero(ratio < 1.0 / MOVED))}")


def report(workload, fits, secs):
    """Lines for each label of ``fits`` in first-seen order, then for the whole workload."""
    labels = list(dict.fromkeys(label for _, label in fits))
    lines = [summary(f"{workload} {label}", secs[[f[1] == label for f in fits]])
             for label in labels]
    return lines + [summary(f"{workload} all", secs)]


def workload_fits(workloads, name, seeds, tall_labels):
    """The fits (instance, label) of workload ``name`` over ``seeds``.

    Every round of each seed through the workload's methods, but for
    ``TALL`` round 0 of each seed, every right-hand side, through ``tall_labels``.
    """
    workload = workloads.WORKLOADS[name]
    if name == TALL:
        return [(inst, label) for seed in seeds for _, rhs in workload.inputs(seed, 0)
                for inst in rhs for label in tall_labels]
    return [(inst, label)
            for seed in seeds for k in range(workload.min_rounds)
            for inst in workload.inputs(seed, k) for label in workload.methods]


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--workloads", nargs="+", choices=[*DEFAULT_WORKLOADS, TALL],
                    default=list(DEFAULT_WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 7])
    ap.add_argument("--labels", nargs="+", type=str.upper, default=None)
    args = ap.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (Path(src) / "l1fit" / "__init__.py").is_file():
            ap.error(f"{src} holds no l1fit package")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(Path(args.new_src).resolve()), str(ROOT / "perfbench")]
    import workloads

    trees = [load(args.old_src, "l1fit_old"), load(args.new_src, "l1fit_new")]
    unknown = sorted(set(args.labels or ()) - set(trees[1].ALL_METHODS))
    if unknown:
        ap.error(f"unknown labels {unknown}; valid labels: " + ", ".join(trees[1].ALL_METHODS))
    for name in args.workloads:
        fits = [(inst, label) for inst, label in workload_fits(
            workloads, name, args.seeds, trees[1].bench.DEFAULT_BENCH_METHODS)
            if args.labels is None or label in args.labels]
        if not fits:
            continue
        for line in report(name, fits, time_fits(trees, fits, PASSES)):
            print(line, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
