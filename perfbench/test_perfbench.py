"""Checks on the benchmark itself: reproducible inputs and a checker that catches wrong answers.

    python3 -m pytest -q perfbench
"""

import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import l1fit  # noqa: E402
from check import FAILED, NONCONVERGED, OK, UNCHECKED, reference, verdict  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, SmallBatch, TallMultiRhs  # noqa: E402


def _flat(workload, inputs):
    if isinstance(workload, TallMultiRhs):
        return [inst for matrix, rhs in inputs for inst in [matrix, *rhs]]
    return list(inputs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_regenerates_bit_identical_instances(name):
    workload = WORKLOADS[name]
    first = _flat(workload, workload.inputs(3, 1))
    again = _flat(workload, workload.inputs(3, 1))
    other = _flat(workload, workload.inputs(4, 1))
    assert [i.key for i in first] == [i.key for i in again]
    for a, b in zip(first, again):
        assert a.problem.A.tobytes() == b.problem.A.tobytes()
        assert a.problem.b.tobytes() == b.problem.b.tobytes()
        assert a.p.tobytes() == b.p.tobytes()
    assert not np.array_equal(first[0].problem.A, other[0].problem.A)


def _small_instance():
    return SmallBatch().inputs(1, 0)[5]


def test_reference_agrees_with_oracle():
    for inst in SmallBatch().inputs(2, 0)[:9]:
        ref = reference(inst.problem)
        oracle = l1fit.oracle_solve(inst.problem)
        assert abs(oracle.cost - ref.cost) <= 1e-9 * ref.cost + ref.floor


def test_perturbed_answer_counts_as_failed_not_ok():
    inst = _small_instance()
    ref = reference(inst.problem)
    assert not ref.consistent
    exact = l1fit.solve(inst.problem, "L1-RES")
    assert verdict(True, exact, inst.problem, ref) == OK

    off = replace(exact, x=exact.x + 1e-6)
    assert verdict(True, off, inst.problem, ref) == FAILED
    assert verdict(False, off, inst.problem, ref) == OK  # within the iterative tolerance

    far = replace(exact, x=exact.x + 0.5)
    assert verdict(False, far, inst.problem, ref) == FAILED
    honest = replace(far, converged=False)
    assert verdict(False, honest, inst.problem, ref) == NONCONVERGED
    assert verdict(True, None, inst.problem, ref) == FAILED
    assert verdict(True, exact, inst.problem, None) == UNCHECKED


def test_consistent_system_is_judged_on_x():
    problem, p = l1fit.gen_instance(40, 8, 5)
    ref = reference(problem)
    assert ref.consistent
    exact = l1fit.solve(problem, "L1-RES")
    assert verdict(True, replace(exact, x=p * (1 + 1e-14)), problem, ref) == OK
    assert verdict(True, replace(exact, x=p * (1 + 1e-8)), problem, ref) == FAILED
    assert verdict(False, replace(exact, x=p * (1 + 1e-8)), problem, ref) == OK


def test_tracer_records_nested_spans_and_restores_entry_points():
    from l1fit import methods, residual_solvers

    originals = (methods.fit_via_residual, residual_solvers.RESIDUAL_METHODS["gpsr"])
    tracer = Tracer()
    tracer.install()
    try:
        tracer.fit = 0
        with tracer.span("fit"):
            l1fit.solve(_small_instance().problem, "L1-GPSR")
    finally:
        tracer.restore()
    assert (methods.fit_via_residual, residual_solvers.RESIDUAL_METHODS["gpsr"]) == originals
    names = [s["name"] for s in tracer.spans]
    assert names[:2] == ["fit", "residual_solvers.fit_via_residual"]
    assert {"reduction.reduce_problem", "residual_solvers.gpsr", "reduction.recover"} <= set(names)
    solver = next(s for s in tracer.spans if s["name"] == "residual_solvers.gpsr")
    assert tracer.spans[solver["parent"]]["name"] == "residual_solvers.fit_via_residual"
    assert solver["fit"] == 0 and solver["iters"] >= 0 and solver["end"] >= solver["start"]


def test_replayed_operation_takes_its_worst_outcome():
    from run import Fit, operations

    inst = _small_instance()
    fits = [Fit(inst, "L1-RES", 0.1, None, None, False, 0.0, outcome=o) for o in (OK, FAILED, OK)]
    fits += [Fit(inst, "L1-GPSR", 0.1, None, None, False, 0.0, outcome=o) for o in (OK, NONCONVERGED)]
    assert operations(fits) == {(inst.key, "L1-RES"): FAILED, (inst.key, "L1-GPSR"): NONCONVERGED}
    # replaying every fit once more leaves the operations, and so attempted and failed, unchanged
    assert operations(fits + fits) == operations(fits)
