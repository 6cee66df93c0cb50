"""``l1fit.solve``: what every method reports and the names it looks up at call time.

Also what ``import l1fit`` loads.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import l1fit
from l1fit import ALL_METHODS, MlmProblem, fit_perturbation, methods, residual_solvers, solve
from l1fit.linalg import norm1
from support import duplicated_rows_problem, random_problem, square_problem


@pytest.mark.parametrize("method", ALL_METHODS)
def test_residual_is_a_x_minus_b(method):
    prob = random_problem(np.random.default_rng(42), 10, 3)
    report = solve(prob, method)
    assert np.array_equal(report.residual, prob.A @ report.x - prob.b)
    assert report.cost == norm1(report.residual)
    assert report.method == method
    assert report.runtime_s > 0.0


# t = 0..4 has n = 1..5; L1-ADM divided by zero on the other seven
@pytest.mark.parametrize("t", [0, 1, 2, 3, 4, 81, 916, 1041, 1082, 1131, 1692, 1762])
def test_square_systems_are_interpolated_by_every_label(t):
    # with m = n no constraint remains: r = 0 is the only feasible residual
    prob = square_problem(t)
    residual_labels = set(residual_solvers.RESIDUAL_LABELS.values())
    for method in ALL_METHODS:
        if method == "ORACLE" and prob.n > 4:
            continue  # beyond the exhaustive search's size guard
        report = solve(prob, method)
        assert report.converged, method
        assert report.cost <= 1e-12 * (1.0 + norm1(prob.b)), method
        if method in residual_labels:
            assert report.iterations == 0, method


def _zero_first_column():
    """8 x 3 with a zero first column: L1-PTB's first kernel direction, e_0, moves no residual."""
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 3))
    A[:, 0] = 0.0
    return MlmProblem(A, rng.standard_normal(8))


@pytest.mark.parametrize("prob", [*map(duplicated_rows_problem, range(8)), _zero_first_column()],
                         ids=[*(f"duplicated-rows-{seed}" for seed in range(8)), "zero-column"])
def test_rank_deficiency_is_one_error_from_every_label(prob):
    # L1-PTB stalled (RuntimeError) and ORACLE found every subset singular
    # (RuntimeError) where the other eight labels raised the rank ValueError
    messages = set()
    for method in ALL_METHODS:
        with pytest.raises(ValueError) as raised:
            solve(prob, method)
        messages.add(str(raised.value))
    assert messages == {"A has column rank below n; the l1 fit is not unique"}


def test_unknown_label_lists_the_methods():
    prob = random_problem(np.random.default_rng(44), 6, 2)
    with pytest.raises(ValueError, match="unknown method 'L1-FOO'; valid methods: L1-LP, L1-PTB,"):
        solve(prob, "L1-FOO")


def test_perturbation_options_reach_the_baseline_unchanged():
    # solve passes c only when it is given, so fit_perturbation's own
    # default is the only one; on this input c = 0.5 takes another path
    prob = random_problem(np.random.default_rng(46), 12, 3)
    default, halved = fit_perturbation(prob), fit_perturbation(prob, c=0.5)
    assert default.x.tobytes() != halved.x.tobytes()
    assert solve(prob, "L1-PTB").x.tobytes() == default.x.tobytes()
    assert solve(prob, "L1-PTB", perturbation_c=0.5).x.tobytes() == halved.x.tobytes()


def test_solve_looks_up_entry_points_at_call_time(monkeypatch):
    # per-layer timing wraps these names from outside the library; a caller
    # that bound one of them at import time would bypass the wrapper silently
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in [
        (residual_solvers, "reduce_problem"),
        (residual_solvers, "recover"),
        (methods, "fit_linprog"),
        (methods, "fit_perturbation"),
        (methods, "oracle_solve"),
        (methods, "fit_via_residual"),
    ]:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    table = residual_solvers.RESIDUAL_METHODS
    monkeypatch.setitem(table, "homotopy", counting("homotopy", table["homotopy"]))

    prob = random_problem(np.random.default_rng(43), 8, 3)
    for method in ALL_METHODS:
        solve(prob, method)
    residual_routes = len(table)
    assert calls == {
        "reduce_problem": residual_routes,
        "recover": residual_routes,
        "fit_via_residual": residual_routes,
        "homotopy": 1,
        "fit_linprog": 1,
        "fit_perturbation": 1,
        "oracle_solve": 1,
    }


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy only serves as a test
    # reference.  With scipy blocked, every method still fits a noisy
    # instance, so no fit path imports it lazily
    code = "\n".join([
        "import sys, l1fit",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        "sys.modules['scipy'] = None  # a later import of scipy raises ImportError",
        "problem, _ = l1fit.gen_instance(12, 3, 5)",
        "problem = l1fit.MlmProblem(problem.A, l1fit.add_sparse_noise(problem.b, 0.25, 0.25, 5))",
        "print(','.join(l1fit.solve(problem, method).method for method in l1fit.ALL_METHODS))",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[]", ",".join(ALL_METHODS)]


@pytest.mark.parametrize("module", ["l1fit"] + [f"l1fit.{m.name}" for m in pkgutil.iter_modules(l1fit.__path__)])
def test_every_exported_name_resolves(module):
    # an export list that names a deleted function fails only at ``import *``
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
