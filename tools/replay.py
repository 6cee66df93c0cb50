"""Replay the benchmark's inputs through every method of one tree: one line per fit.

    python3 tools/replay.py SRC_DIR > fits.txt
    diff parent_fits.txt fits.txt

SRC_DIR is the ``src`` directory of the tree under test; ``l1fit`` is
imported from it, and the inputs come from this checkout's
``perfbench/workloads.py`` (pinned generator, so any tree gets the same
bytes).  The fits cover square seeds 1-7 x 3 rounds and small-batch seeds 1
and 7 x 7 rounds, each workload's methods, and tall-multi-rhs round 0 of
seeds 1 and 73 through ``bench.DEFAULT_BENCH_METHODS``, every fit through
``l1fit.solve`` with BLAS on one thread.  A line is

    workload key label sha256(x)[:16] iterations converged cost

with the cost in full precision, or ``error: <type>: <message>`` after the
label when the solver raised.  Two trees are compared with ``diff``.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SQUARE_SEEDS = range(1, 8)
SMALL_BATCH_SEEDS = (1, 7)
TALL_SEEDS = (1, 73)


def fit_lines(l1fit, workload, inst, labels):
    """The replay lines of the input ``inst`` of ``workload``, one per label, fit by ``l1fit``."""
    lines = []
    for label in labels:
        try:
            report = l1fit.solve(inst.problem, label)
        except (ValueError, RuntimeError) as exc:
            lines.append(f"{workload} {inst.key} {label} error: {type(exc).__name__}: {exc}")
            continue
        digest = hashlib.sha256(report.x.tobytes()).hexdigest()[:16]
        lines.append(f"{workload} {inst.key} {label} {digest} {report.iterations} "
                     f"{report.converged} {report.cost!r}")
    return lines


def main(argv):
    if len(argv) != 1 or not (Path(argv[0]) / "l1fit").is_dir():
        sys.exit("usage: replay.py SRC_DIR  (a directory holding the l1fit package)")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(Path(argv[0]).resolve()), str(ROOT / "perfbench")]
    import l1fit
    import workloads

    def replay(workload, inst, labels):
        for line in fit_lines(l1fit, workload, inst, labels):
            print(line)

    for name, seeds in (("square", SQUARE_SEEDS), ("small-batch", SMALL_BATCH_SEEDS)):
        workload = workloads.WORKLOADS[name]
        for seed in seeds:
            for k in range(workload.min_rounds):
                for inst in workload.inputs(seed, k):
                    replay(name, inst, workload.methods)
    for seed in TALL_SEEDS:
        for _, rhs in workloads.WORKLOADS["tall-multi-rhs"].inputs(seed, 0):
            for inst in rhs:
                replay("tall-multi-rhs", inst, l1fit.bench.DEFAULT_BENCH_METHODS)


if __name__ == "__main__":
    main(sys.argv[1:])
