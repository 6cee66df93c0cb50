"""Time two trees' ``reduce_problem`` over a grid of shapes, interleaved, one BLAS thread.

    python3 tools/reduce_sizes.py OLD_SRC NEW_SRC [--rounds 15] [--shapes 12x3 64x8]

OLD_SRC and NEW_SRC are ``src`` directories, each imported under its own
name as ``tools/ab.py`` loads them.  The default grid is n in {2, 3, 4, 6,
8, 10, 12, 16, 32} and m in {n + 1, 2n, 4n, 64, 256, 1024} with m > n; a
shape's A is standard normal (pinned seed), so every reduction takes its
full-rank path.  Each round times a block of calls on each tree, the tree
that goes first alternating round by round, and a tree's time for a shape
is the median over rounds of its seconds per call.  One line per shape
gives m n^2, the branch the new tree takes there (``svd``: one SVD of A;
``qr``: Householder or block QR, with or without an SVD of R), both times
in microseconds and the NEW/OLD ratio; below 1 the new tree is faster.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import ab

NS = (2, 3, 4, 6, 8, 10, 12, 16, 32)
BLOCK_S = 2e-3  # seconds per timed block, about


def grid():
    """The default shapes (m, n), by n and then m."""
    return [(m, n) for n in NS for m in sorted({n + 1, 2 * n, 4 * n, 64, 256, 1024}) if m > n]


def branch(tree, problem):
    """``svd`` when ``tree.reduce_problem`` takes an SVD of A itself, else ``qr``."""
    import numpy as np

    shapes, svd = [], np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    np.linalg.svd = recording
    try:
        tree.reduce_problem(problem)
    finally:
        np.linalg.svd = svd
    return "svd" if problem.A.shape in shapes else "qr"


def time_shape(trees, m, n, rounds):
    """(old, new) median seconds per ``reduce_problem`` call at m x n, and the new branch."""
    import numpy as np

    A = np.random.default_rng(m * 1009 + n).standard_normal((m, n))
    problems = [tree.MlmProblem(A, np.zeros(m)) for tree in trees]
    t0 = time.perf_counter()
    for tree, problem in zip(trees, problems):  # warm, and size the blocks
        tree.reduce_problem(problem)
    number = max(1, int(BLOCK_S / max(time.perf_counter() - t0, 1e-7)))
    secs = np.empty((rounds, 2))
    for r in range(rounds):
        for side in (r % 2, 1 - r % 2):
            reduce, problem = trees[side].reduce_problem, problems[side]
            t0 = time.perf_counter()
            for _ in range(number):
                reduce(problem)
            secs[r, side] = (time.perf_counter() - t0) / number
    old, new = np.median(secs, axis=0)
    return old, new, branch(trees[1], problems[1])


def shape(text):
    m, _, n = text.partition("x")
    return int(m), int(n)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--shapes", nargs="+", type=shape, default=None, metavar="MxN")
    args = ap.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (Path(src) / "l1fit" / "__init__.py").is_file():
            ap.error(f"{src} holds no l1fit package")
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    trees = [ab.load(args.old_src, "l1fit_old"), ab.load(args.new_src, "l1fit_new")]
    for m, n in args.shapes or grid():
        old, new, kind = time_shape(trees, m, n, args.rounds)
        print(f"{m:>5}x{n:<3} mn2 {m * n * n:>8} {kind:<4} old {old * 1e6:9.1f} us  "
              f"new {new * 1e6:9.1f} us  ratio {new / old:.3f}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
