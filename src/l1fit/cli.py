"""Command-line interface: generate data, solve instances, run benchmarks.

Exit codes: 0 success, 1 usage or parse error, 2 solver stopped at the
iteration limit (the result is still printed) or the solver failed
(``l1fit solve: error: ...`` on stderr, no x written).
"""

from __future__ import annotations

import argparse
import sys

from .bench import DEFAULT_BENCH_METHODS, ExperimentSpec, add_sparse_noise, gen_instance, run_experiment, write_csv
from .datafiles import read_matrix, read_vector, write_matrix, write_vector
from .methods import ALL_METHODS, solve
from .reduction import MlmProblem
from .residual_solvers import SolverParams

_SOLVE_METHODS = [m.lower() for m in ALL_METHODS]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="l1fit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--sparsity", type=float, default=0.0, help="noise sparsity ratio in [0,1]")
    gen.add_argument("--noise-var", type=float, default=0.25)
    gen.add_argument("--out-prefix", default="", help="prefix for A.txt, b.txt, p.txt")

    slv = sub.add_parser("solve", help="solve one instance from files")
    slv.add_argument("--method", required=True, choices=_SOLVE_METHODS)
    slv.add_argument("--matrix", required=True)
    slv.add_argument("--rhs", required=True)
    slv.add_argument("--eps", type=float, default=1e-8)
    slv.add_argument("--lambda", dest="lam", type=float, default=1e-8)
    slv.add_argument("--maxiter", type=int, default=None)
    slv.add_argument("--tau", type=float, default=0.02)
    slv.add_argument("--mu", type=float, default=None)
    slv.add_argument("--ptb-c", type=float, default=1.0, help="perturbation correction scale")
    slv.add_argument("--out", default=None, help="write x here instead of stdout")

    ben = sub.add_parser("bench", help="run a benchmark experiment")
    ben.add_argument("--experiment", required=True, choices=["noise-free", "sparse-noise", "drl"])
    ben.add_argument("--m", type=int, default=256)
    ben.add_argument("--n", type=int, default=128)
    ben.add_argument("--repeats", type=int, default=30)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--methods", default=",".join(DEFAULT_BENCH_METHODS))
    ben.add_argument("--csv", default="bench.csv")
    return parser


def _cmd_gen(args) -> int:
    if not (args.m > args.n >= 2):
        print(f"l1fit gen: error: need m > n >= 2, got m={args.m}, n={args.n}", file=sys.stderr)
        return 1
    problem, p = gen_instance(args.m, args.n, args.seed)
    try:
        b = add_sparse_noise(problem.b, args.sparsity, args.noise_var, args.seed)
    except ValueError as exc:
        print(f"l1fit gen: error: {exc}", file=sys.stderr)
        return 1
    prefix = args.out_prefix
    try:
        write_matrix(f"{prefix}A.txt", problem.A)
        write_vector(f"{prefix}b.txt", b)
        write_vector(f"{prefix}p.txt", p)
    except OSError as exc:
        print(f"l1fit gen: error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_solve(args) -> int:
    try:
        A = read_matrix(args.matrix)
        b = read_vector(args.rhs)
        problem = MlmProblem(A, b)
    except (ValueError, OSError) as exc:
        print(f"l1fit solve: error: {exc}", file=sys.stderr)
        return 1
    try:
        params = SolverParams(
            epsilon=args.eps,
            lam=args.lam,
            maxiter=args.maxiter if args.maxiter is not None else 10000,
            tau=args.tau,
            mu=args.mu,
        )
        report = solve(problem, args.method, params,
                       perturbation_c=args.ptb_c, perturbation_maxiter=args.maxiter)
    except ValueError as exc:
        print(f"l1fit solve: error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:  # the method broke down on this instance
        print(f"l1fit solve: error: {exc}", file=sys.stderr)
        return 2
    lines = "\n".join(format(v, ".17g") for v in report.x) + "\n"
    if args.out is None:
        sys.stdout.write(lines)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(lines)
        except OSError as exc:
            print(f"l1fit solve: error: {exc}", file=sys.stderr)
            return 1
    print(f"cost: {report.cost:.17g}", file=sys.stderr)
    print(f"iterations: {report.iterations}", file=sys.stderr)
    print(f"runtime_s: {report.runtime_s:.6g}", file=sys.stderr)
    return 0 if report.converged else 2


def _cmd_bench(args) -> int:
    kind = {"noise-free": "noise_free", "sparse-noise": "sparse_noise", "drl": "drl_sweep"}[
        args.experiment
    ]
    methods = tuple(m.strip().upper() for m in args.methods.split(",") if m.strip())
    try:
        spec = ExperimentSpec(
            kind=kind,
            m=args.m,
            n=args.n,
            repeats=args.repeats,
            seed=args.seed,
            methods=methods,
        )
    except ValueError as exc:
        print(f"l1fit bench: error: {exc}", file=sys.stderr)
        return 1
    records = run_experiment(spec)
    try:
        write_csv(records, args.csv)
    except OSError as exc:
        print(f"l1fit bench: error: {exc}", file=sys.stderr)
        return 1
    total = len(records)
    failed = sum(1 for rec in records if rec.errors >= rec.repeats)
    if total and failed == total:
        print("l1fit bench: error: every run failed", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "gen":
        return _cmd_gen(args)
    if args.command == "solve":
        return _cmd_solve(args)
    return _cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())
