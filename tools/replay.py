"""Replay the benchmark's inputs through every method of one tree: one line per fit.

    python3 tools/replay.py SRC_DIR > fits.txt
    diff parent_fits.txt fits.txt

SRC_DIR is the ``src`` directory of the tree under test; ``l1fit`` is
imported from it, and the inputs come from this checkout's
``perfbench/workloads.py`` (pinned generator, so any tree gets the same
bytes).  The fits are ``tools/ab.py``'s ``workload_fits`` of square seeds
1-7 and small-batch seeds 1 and 7, every round through each workload's
methods, and of tall-multi-rhs seeds 1 and 73, round 0 through
``bench.DEFAULT_BENCH_METHODS``, every fit through ``l1fit.solve`` with
BLAS on one thread.  A line is

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
SEEDS = {"square": range(1, 8), "small-batch": (1, 7), "tall-multi-rhs": (1, 73)}


def fit_line(l1fit, workload, inst, label):
    """The replay line of the input ``inst`` of ``workload`` fit by ``l1fit`` with ``label``."""
    try:
        report = l1fit.solve(inst.problem, label)
    except (ValueError, RuntimeError) as exc:
        return f"{workload} {inst.key} {label} error: {type(exc).__name__}: {exc}"
    digest = hashlib.sha256(report.x.tobytes()).hexdigest()[:16]
    return (f"{workload} {inst.key} {label} {digest} {report.iterations} "
            f"{report.converged} {report.cost!r}")


def main(argv):
    if len(argv) != 1 or not (Path(argv[0]) / "l1fit").is_dir():
        sys.exit("usage: replay.py SRC_DIR  (a directory holding the l1fit package)")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(Path(argv[0]).resolve()), str(ROOT / "perfbench"), str(ROOT / "tools")]
    import l1fit
    import workloads
    from ab import workload_fits

    for name, seeds in SEEDS.items():
        for inst, label in workload_fits(workloads, name, seeds, l1fit.bench.DEFAULT_BENCH_METHODS):
            print(fit_line(l1fit, name, inst, label))


if __name__ == "__main__":
    main(sys.argv[1:])
