"""l1fit benchmark: one closed-loop workload per run, every fit checked against an exact reference.

    python3 perfbench/run.py --workload square --seed 1 --seconds 20 --trace 0

Workloads are ``square``, ``tall-multi-rhs`` and ``small-batch`` (see
``workloads.py`` and ``perfbench/README.md``).  The run builds the
workload's ``min_rounds`` rounds of inputs from ``--seed``, plays them in
turn, whole rounds at a time, until at least ``--seconds`` have passed and
each was played once, then checks every fit against the HiGHS reference in
``check.py``.  An operation is one (instance, method) pair; it fails if any
of its fits failed.  So ``attempted``, ``failed`` and the outcome fractions
depend on the seed alone, not on how many rounds the machine's speed allowed.

Standard output holds one line per metric, per-method outcome counts and a
``# info`` line of machine and build facts; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and the metrics that
``BENCHMARK.json`` lists: its ``end_to_end`` metrics with ``--trace 0``,
its ``per_layer`` metrics with ``--trace 1``.  A traced run replays every
round once untraced and once traced, reports the tracing overhead between
the two, and writes its spans (``spans.py``) to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

START = time.perf_counter()  # set-up is timed from here, in a fresh process
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
# never run while the benchmark was written: confirm a gain found on other seeds here
HELDOUT_SEED = 7
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
# one caller on one core: at 256x128 a second BLAS thread costs more CPU than it
# saves and makes timings noisier on a shared machine
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_FAILURE_LINES = 20
# a calibration sample at most this often, between fits; a fit is divided by the
# median of the samples nearest it, this many on each side
CALIBRATE_EVERY_S = 0.2
CALIBRATE_WINDOW = 3
CALIBRATE_REPS = 40
E2E_NAMES = ("setup_s", "fits_per_s", "fit_s.p50", "fit_s.gmean", "fit_norm.gmean", "fit_s.tail",
             "exact_fit_s.p50", "iterative_fit_s.p50", "ok_frac", "fail_frac", "rel_err.p50")
SOLVERS = ("linprog", "gpsr", "tnipm", "homotopy", "ist", "adm", "pob")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("square", "tall-multi-rhs", "small-batch"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; seed {HELDOUT_SEED} is held out "
                         "to confirm a gain found on other seeds)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, warm up and generate the first round, print the "
                         "seconds it took and exit (the parent runs this in fresh processes)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def bootstrap() -> None:
    """Pin BLAS threads before numpy loads and import l1fit from this checkout's sources."""
    if not (SRC / "l1fit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no l1fit sources at {SRC}; run from the root of a full checkout")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))


def warm_up(workload) -> None:
    """Pay first-call costs here: LAPACK start-up and one tiny fit per method."""
    import numpy as np

    import l1fit

    big, _ = l1fit.gen_instance(256, 128, 0)
    np.linalg.cholesky(big.A.T @ big.A)
    tiny, _ = l1fit.gen_instance(8, 3, 0)
    for label in workload.methods:
        l1fit.solve(tiny, label)


def setup(name: str, seed: int, tracer=None):
    """Import, warm-up and the first round's inputs: what ``setup_s`` times."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    warm_up(workload)
    with tracer.span("rng.gen") if tracer else nullcontext():
        inputs = workload.inputs(seed, 0)
    return workload, inputs


def time_setup(args) -> list[float]:
    """``setup`` in SETUP_SAMPLES fresh processes; each reports its own time since START."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    return [float(subprocess.run(cmd, check=True, capture_output=True, text=True,
                                 timeout=SETUP_TIMEOUT_S).stdout.split()[-1])
            for _ in range(SETUP_SAMPLES)]


@dataclass
class Fit:
    inst: object
    label: str
    seconds: float
    report: object | None
    error: str | None
    traced: bool
    start: float
    outcome: str = ""
    gap: float = float("nan")
    x_err: float = float("nan")
    rel_err: float = float("nan")


class Calibration:
    """Times a fixed kernel that never calls l1fit, between fits, to divide out the machine's speed.

    On a shared host the machine's speed moves by 15-40 % within seconds and
    between runs, in thread CPU time as much as in wall time.  The kernel does
    the kind of work a fit does: tiny LAPACK calls through numpy, and Python
    list and dict work.  A fit's time divided by the median of the samples
    nearest it cancels that drift; a change to l1fit moves only the numerator.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.A = np.random.default_rng(0).standard_normal((12, 4))
        self.b = np.ones(12)
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent = 0.0
        self.last = -math.inf

    def sample(self, force: bool = False) -> None:
        t0 = time.perf_counter()
        if not force and t0 - self.last < CALIBRATE_EVERY_S:
            return
        acc = 0.0
        for _ in range(CALIBRATE_REPS):
            x = self.np.linalg.lstsq(self.A, self.b, rcond=None)[0]
            ordered = sorted((float(v) for v in self.A @ x - self.b), key=abs)
            acc += {i: v for i, v in enumerate(ordered)}[0]
        self.last = time.perf_counter()
        self.times.append(t0)
        self.samples.append(self.last - t0)
        self.spent += self.last - t0

    def local(self, t: float) -> float:
        """Median of the samples nearest time ``t``: CALIBRATE_WINDOW before and after."""
        j = bisect.bisect(self.times, t)
        return statistics.median(
            self.samples[max(0, j - CALIBRATE_WINDOW):j + CALIBRATE_WINDOW])


def recorder(fits: list, tracer, calibration: Calibration):
    """The callback a workload calls for each fit: time it, keep the outcome, never abort."""

    def fit(inst, label, call):
        if tracer is not None:
            tracer.fit = len(fits)
            span = tracer.open("fit", method=label)
        report = error = None
        t0 = time.perf_counter()
        try:
            report = call()
        except Exception as exc:  # a raising fit is a counted failure, not the end of the run
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
            tracer.fit = None
        fits.append(Fit(inst, label, seconds, report, error, tracer is not None, t0))
        calibration.sample()

    return fit


def measure(workload, first_inputs, args, tracer, calibration):
    """Whole rounds until the time and the minimum round count are both reached.

    Round ``k`` plays input set ``k mod min_rounds``, so the run's distinct
    operations are fixed by the seed.  Returns the fits, the wall time of the
    untraced and traced passes (input generation and calibration excluded)
    and the number of rounds.
    """
    fits: list[Fit] = []
    wall = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    rounds = 0
    distinct = [first_inputs]
    while rounds < workload.min_rounds or time.perf_counter() - start < args.seconds:
        if rounds == len(distinct) < workload.min_rounds:
            distinct.append(workload.inputs(args.seed, rounds))
        inputs = distinct[rounds % workload.min_rounds]
        # a traced run alternates which pass of a round goes first, so neither
        # side of the overhead ratio always gets the warmer caches
        passes = (rounds % 2 == 1, rounds % 2 == 0) if tracer is not None else (False,)
        for traced in passes:
            if traced:
                tracer.install()
            try:
                calibration.sample(force=True)
                t0, spent = time.perf_counter(), calibration.spent
                workload.run(inputs, recorder(fits, tracer if traced else None, calibration))
                wall[traced] += time.perf_counter() - t0 - (calibration.spent - spent)
            finally:
                if traced:
                    tracer.restore()
        rounds += 1
    return fits, wall, rounds


def verify(workload, fits) -> None:
    """Reference every instance once, judge every fit, and check the checker."""
    import numpy as np

    from check import EXACT_TOL, cost_gap, reference, verdict, x_error
    from workloads import EXACT_METHODS

    refs = {}
    for f in fits:
        problem = f.inst.problem
        if f.inst.key not in refs:
            refs[f.inst.key] = reference(problem)
        ref = refs[f.inst.key]
        f.outcome = verdict(f.label in EXACT_METHODS, f.report, problem, ref)
        if f.report is not None:
            f.rel_err = float(np.linalg.norm(f.report.x - f.inst.p) / np.linalg.norm(f.inst.p))
            if ref is not None:
                f.gap = cost_gap(problem, f.report.x, ref)
                f.x_err = x_error(f.report.x, ref)

    # the reference must agree with the brute-force oracle where both exist
    if "ORACLE" in workload.methods:
        checked = 0
        for f in fits:
            ref = refs[f.inst.key]
            if f.label != "ORACLE" or f.report is None or ref is None:
                continue
            cost = float(np.sum(np.abs(f.inst.problem.A @ f.report.x - f.inst.problem.b)))
            if abs(cost - ref.cost) > EXACT_TOL * ref.cost + ref.floor:
                sys.exit(f"perfbench: self-check failed on {f.inst.key}: reference cost "
                         f"{ref.cost!r}, oracle cost {cost!r}")
            checked += 1
        if not checked:
            sys.exit("perfbench: self-check impossible, no ORACLE fit returned")


# worst first: an operation whose fits disagree takes the worst of their outcomes
SEVERITY = ("failed", "unchecked", "nonconverged", "ok")


def operations(fits) -> dict:
    """(instance key, method) -> the worst outcome among that operation's fits."""
    ops = {}
    for f in fits:
        op = (f.inst.key, f.label)
        if op not in ops or SEVERITY.index(f.outcome) < SEVERITY.index(ops[op]):
            ops[op] = f.outcome
    return ops


def percentile(values, q: int) -> float:
    """Linear-interpolation percentile, as numpy's default."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, fits, wall, setup_samples, calibration):
    """Name -> (value, unit, note); a metric whose methods the workload skips is absent."""
    from check import FAILED, OK
    from workloads import EXACT_METHODS

    times = [f.seconds for f in fits]
    tail = percentile(times, workload.tail_pct)
    exact = [f.seconds for f in fits if f.label in EXACT_METHODS]
    iterative = [f.seconds for f in fits if f.label not in EXACT_METHODS]
    returned = [f for f in fits if f.report is not None]
    ops = list(operations(fits).values())
    by_op, norm_by_op = defaultdict(list), defaultdict(list)
    for f in fits:
        by_op[(f.inst.key, f.label)].append(f.seconds)
        norm_by_op[(f.inst.key, f.label)].append(f.seconds / calibration.local(f.start))
    out = {
        "setup_s": (statistics.median(setup_samples), "s",
                    f"median of {len(setup_samples)} fresh processes"),
        "fits_per_s": (len(returned) / wall, "1/s", f"{len(returned)} fits in {wall:.3f} s"),
        "fit_s.p50": (statistics.median(times), "s", f"{len(times)} fits"),
        "fit_s.gmean": (statistics.geometric_mean(statistics.median(t) for t in by_op.values()),
                        "s", f"geometric mean over {len(by_op)} operations of their median"),
        "fit_norm.gmean": (statistics.geometric_mean(statistics.median(t) for t in norm_by_op.values()),
                           "ratio", f"as fit_s.gmean, each fit divided by its nearest of "
                           f"{len(calibration.samples)} calibration samples, median "
                           f"{statistics.median(calibration.samples):.6f} s"),
        "fit_s.tail": (tail, "s", f"p{workload.tail_pct}, "
                       f"{sum(t > tail for t in times)} of {len(times)} fits above"),
        "ok_frac": (ops.count(OK) / len(ops), "fraction", f"{len(ops)} operations"),
        "fail_frac": (ops.count(FAILED) / len(ops), "fraction", f"{len(ops)} operations"),
    }
    if exact:
        out["exact_fit_s.p50"] = (statistics.median(exact), "s", f"{len(exact)} fits")
    if iterative:
        out["iterative_fit_s.p50"] = (statistics.median(iterative), "s", f"{len(iterative)} fits")
    if returned:
        out["rel_err.p50"] = (statistics.median(f.rel_err for f in returned), "ratio",
                              f"{len(returned)} fits")
    return out


def per_layer(tracer, fits, rounds, wall, gen_s):
    """Name -> (value, unit, note) from the traced pass; a layer not exercised reads 0."""
    from l1fit import SolverParams
    from l1fit.residual_solvers import RESIDUAL_LABELS

    spans = defaultdict(list)
    for s in tracer.spans:
        spans[s["name"]].append(s)

    def secs(name):
        return [s["end"] - s["start"] for s in spans[name]]

    def iters(name):
        return [s.get("iters", 0) for s in spans[name]]

    def median0(values):
        return statistics.median(values) if values else 0.0

    maxiter = SolverParams().maxiter
    out = {
        "rng.gen_s": (gen_s, "s", "first round, in set-up"),
        "reduction.reduce_s.p50": (median0(secs("reduction.reduce_problem")), "s", ""),
        "reduction.recover_s.p50": (median0(secs("reduction.recover")), "s", ""),
        "reduction.calls": (len(spans["reduction.reduce_problem"]) / rounds, "count", "per round"),
    }
    for name in SOLVERS:
        layer = f"residual_solvers.{name}"
        t, it = secs(layer), iters(layer)
        gaps = [f.gap for f in fits
                if f.traced and f.label == RESIDUAL_LABELS[name] and not math.isnan(f.gap)]
        out[f"{layer}.s_p50"] = (median0(t), "s", f"{len(t)} calls")
        out[f"{layer}.iters"] = (median0(it), "count", "median per call")
        out[f"{layer}.s_per_iter"] = (sum(t) / sum(it) if sum(it) else 0.0, "s", "")
        out[f"{layer}.budget_hit_frac"] = (
            sum(i >= maxiter for i in it) / len(it) if it else 0.0, "fraction", f"budget {maxiter}")
        out[f"{layer}.cost_gap_max"] = (max(gaps, default=0.0), "ratio", "")
    for layer, count in (("direct.fit_linprog", "iters"), ("direct.fit_perturbation", "rounds"),
                         ("oracle.oracle_solve", "subsets")):
        out[f"{layer}.s_p50"] = (median0(secs(layer)), "s", f"{len(spans[layer])} calls")
        out[f"{layer}.{count}"] = (median0(iters(layer)), "count", "median per call")
    out["trace.overhead_frac"] = (wall[True] / wall[False] - 1.0, "ratio",
                                  f"traced {wall[True]:.3f} s vs untraced {wall[False]:.3f} s")
    return out


def outcome_lines(workload, fits):
    """Per-method counts of operations; non-converged ones are counted, never averaged in."""
    from check import FAILED, NONCONVERGED, OK, UNCHECKED
    from l1fit import SolverParams
    from l1fit.residual_solvers import RESIDUAL_LABELS
    from workloads import ITERATIVE_SOLVERS

    budgeted = {RESIDUAL_LABELS[s] for s in ITERATIVE_SOLVERS}
    maxiter = SolverParams().maxiter
    ops = operations(fits)
    lines = []
    for label in workload.methods:
        mine = [outcome for (_, method), outcome in ops.items() if method == label]
        line = f"outcome {label}: " + " ".join(
            f"{k}={mine.count(k)}" for k in (OK, NONCONVERGED, FAILED, UNCHECKED))
        if label in budgeted:
            hits = {f.inst.key for f in fits if f.label == label and f.report is not None
                    and f.report.iterations >= maxiter}
            line += f" budget_hit={len(hits)}"
        lines.append(line + f" of {len(mine)} operations")
    bad = {}
    for f in fits:
        if f.outcome == FAILED:
            bad.setdefault((f.inst.key, f.label), f)
    for f in list(bad.values())[:MAX_FAILURE_LINES]:
        lines.append(f"failure {f.label} {f.inst.key}: "
                     + (f.error or f"claims convergence, cost gap {f.gap:.3e}, "
                                   f"x error {f.x_err:.3e}"))
    return lines


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "src_l1fit_lines": sum(len(p.read_text().splitlines())
                               for p in sorted((SRC / "l1fit").rglob("*.py"))),
    }


def declared_metrics(trace: int) -> list[tuple[str, str]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    if args.setup_only:
        setup(args.workload, args.seed)
        print(time.perf_counter() - START)
        return 0

    declared = declared_metrics(args.trace)
    setup_samples = time_setup(args)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    workload, inputs = setup(args.workload, args.seed, tracer)
    gen_s = sum(s["end"] - s["start"] for s in tracer.spans) if tracer else 0.0

    calibration = Calibration()
    fits, wall, rounds = measure(workload, inputs, args, tracer, calibration)
    verify(workload, fits)

    metrics = end_to_end(workload, [f for f in fits if not f.traced], wall[False], setup_samples,
                         calibration)
    if tracer is not None:
        metrics.update(per_layer(tracer, fits, rounds, wall, gen_s))
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)

    print(f"# perfbench workload={workload.name} seed={args.seed} trace={args.trace} "
          f"rounds={rounds} fits={len(fits)}")
    print("# info " + json.dumps(machine_info()))
    for name in E2E_NAMES:
        if name in metrics:
            value, unit, note = metrics[name]
            print(f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
        else:
            print(f"metric {name} = absent (no such fits in this workload)")
    for line in outcome_lines(workload, fits):
        print(line)
    if tracer is not None:
        for name, (value, unit, note) in metrics.items():
            if name not in E2E_NAMES:
                print(f"layer {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
        print(f"# spans written to {spans_path.relative_to(ROOT)}")

    result = {}
    for name, unit in declared:
        if name not in metrics or metrics[name][1] != unit:
            sys.exit(f"perfbench: BENCHMARK.json declares {name} [{unit}], which this run "
                     f"does not measure in that unit")
        result[name] = {"value": metrics[name][0], "unit": unit}
    # correct: every fit was judged against a reference; wrong answers are failures.
    # attempted and failed count distinct operations, so they depend on the seed alone
    ops = list(operations(fits).values())
    print(json.dumps({"correct": "unchecked" not in ops,
                      "attempted": len(ops),
                      "failed": ops.count("failed"),
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
