import sys
from pathlib import Path

import numpy as np
import pytest

from l1fit import MlmProblem, direct, fit_linprog, fit_perturbation, gen_instance, oracle_solve, solve
from l1fit.direct import _best_step, _zero_mask
from l1fit.linalg import norm_inf, nullspace_basis, pinv
from support import bench_problem, dependent_top_rows_problem, highs_cost, random_problem

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def test_linprog_consistent_system():
    rng = np.random.default_rng(50)
    A = rng.standard_normal((9, 4))
    p = rng.standard_normal(4)
    report = fit_linprog(MlmProblem(A, A @ p))
    assert report.cost <= 1e-10
    assert report.method == "L1-LP"


def test_linprog_matches_oracle():
    rng = np.random.default_rng(51)
    for _ in range(10):
        prob = random_problem(rng, 4, 2)
        assert fit_linprog(prob).cost == pytest.approx(oracle_solve(prob).cost, rel=1e-9)


@pytest.mark.parametrize("seed", range(1, 9))
def test_highs_reference_meets_the_certified_optimum(seed):
    # one row of a consistent system is off by 3e-8; at its default 1e-7
    # feasibility tolerance HiGHS reported 5.8e-7 on seed 3, so a fit up to
    # 19x above the optimum would have matched the tests' reference
    problem, _ = gen_instance(40, 5, seed)
    b = problem.b.copy()
    b[7] += 3e-8
    report = fit_linprog(MlmProblem(problem.A, b))
    assert report.converged
    assert highs_cost(problem.A, b) == pytest.approx(report.cost, rel=1e-9, abs=1e-12)


def test_one_extra_row_leaves_one_nonzero():
    rng = np.random.default_rng(52)
    for _ in range(5):
        prob = random_problem(rng, 4, 3)
        report = fit_linprog(prob)
        nonzero = np.abs(report.residual) > 1e-8 * (1.0 + np.max(np.abs(report.residual)))
        assert np.count_nonzero(nonzero) <= 1
        assert report.cost == pytest.approx(oracle_solve(prob).cost, rel=1e-9)


def test_linprog_vertex_has_n_zero_residuals():
    rng = np.random.default_rng(53)
    for _ in range(10):
        prob = random_problem(rng, 11, 4)
        report = fit_linprog(prob)
        zeros = np.abs(report.residual) <= 1e-8 * (1.0 + np.max(np.abs(report.residual)))
        assert np.count_nonzero(zeros) >= prob.n


def test_perturbation_close_to_oracle():
    rng = np.random.default_rng(54)
    prob = random_problem(rng, 5, 2)
    report = fit_perturbation(prob)
    assert report.method == "L1-PTB"
    assert report.cost <= 1.05 * oracle_solve(prob).cost


def test_perturbation_residual_zero_count():
    rng = np.random.default_rng(55)
    for _ in range(5):
        prob = random_problem(rng, 7, 3)
        report = fit_perturbation(prob)
        zeros = np.abs(report.residual) <= 1e-8 * (1.0 + np.max(np.abs(report.residual)))
        assert np.count_nonzero(zeros) >= prob.n
        assert report.cost <= np.sum(np.abs(prob.b)) + 1e-12  # never worse than x = 0


def test_zero_rhs_entry_starts_in_zero_set():
    rng = np.random.default_rng(56)
    A = rng.standard_normal((6, 2))
    b = rng.standard_normal(6)
    b[3] = 0.0
    prob = MlmProblem(A, b)
    assert _zero_mask(prob.A @ np.zeros(2) - prob.b)[3]


def test_step_search_never_increases_objective():
    rng = np.random.default_rng(57)
    for _ in range(50):
        r_star = rng.standard_normal(8)
        r_star[np.abs(r_star) < 0.05] = 0.1  # keep entries away from zero
        Ad = rng.standard_normal(8)
        v = _best_step(r_star, Ad)
        assert np.sum(np.abs(r_star + v * Ad)) <= np.sum(np.abs(r_star)) + 1e-12


def test_step_search_tie_breaks_on_magnitude():
    # symmetric configuration: steps +1 and -1 give equal objectives, and
    # the implementation must pick deterministically by |step| then index
    r_star = np.array([1.0, -1.0])
    Ad = np.array([-1.0, -1.0])
    v = _best_step(r_star, Ad)
    assert v == pytest.approx(1.0)


def test_perturbation_validation():
    rng = np.random.default_rng(58)
    prob = random_problem(rng, 5, 2)
    with pytest.raises(ValueError):
        fit_perturbation(prob, c=0.0)
    # an infinite c stalled the zero-set growth, reported as a breakdown
    for c in (np.inf, np.nan):
        with pytest.raises(ValueError, match="c must be positive and finite"):
            fit_perturbation(prob, c=c)
    with pytest.raises(ValueError):
        fit_perturbation(prob, maxiter=0)
    # the rounds end when their count equals maxiter, so maxiter=2.5 never
    # ended on an input that L1-PTB does not certify (bench_problem(8, 4,
    # 0.25, 100002)); this one it certifies, so the check fails, not hangs
    for maxiter in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="integer"):
            solve(prob, "L1-PTB", perturbation_maxiter=maxiter)
    assert fit_perturbation(prob, maxiter=np.int64(2)).iterations <= 2


def test_perturbation_needs_zero_rows_of_rank_n():
    # four zero rows of rank 1 used to pass for a full zero set: the
    # certificate then claimed convergence at cost 34.09 against the LP's 8.92
    prob = dependent_top_rows_problem()
    report = fit_perturbation(prob)
    exact = fit_linprog(prob)
    assert not report.converged or abs(report.cost - exact.cost) <= 1e-9 * exact.cost


def test_square_system_solved_exactly():
    rng = np.random.default_rng(59)
    A = rng.standard_normal((3, 3))
    p = rng.standard_normal(3)
    prob = MlmProblem(A, A @ p)
    assert fit_perturbation(prob).cost <= 1e-8
    assert fit_linprog(prob).cost <= 1e-8


def _counting(monkeypatch, module, name):
    """Count the calls of ``module.name``, patched to a pass-through; returns the list of calls."""
    calls = []
    f = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return f(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("seed", [100001, 100026, 700023])
def test_perturbation_takes_one_svd_per_zero_set(monkeypatch, seed):
    # each kernel step and each round's certificate factor their zero set
    # once; the nullspace SVD and the pseudo-inverse's SVD used to be two
    problem = bench_problem(14, 4, 0.25, seed)
    steps = _counting(monkeypatch, direct, "_best_step")
    svds = _counting(monkeypatch, np.linalg, "svd")
    report = fit_perturbation(problem)
    assert len(steps) > 0
    assert len(svds) == len(steps) + report.iterations


def test_perturbation_stalled_growth_raises_after_m_plus_n_steps(monkeypatch):
    # a step that never moves x never grows the zero set: the guard allows
    # m + n growth steps in a round, then raises
    problem = bench_problem(12, 3, 0.25, 100001)
    calls = []

    def no_step(r_star, Ad):
        calls.append(r_star)
        return 0.0

    monkeypatch.setattr(direct, "_best_step", no_step)
    with pytest.raises(RuntimeError, match="zero-set growth stalled"):
        fit_perturbation(problem)
    assert len(calls) == problem.m + problem.n


def _perturbation_reference(problem, c=1.0, maxiter=15):
    """(x, rounds, converged) of the descent with a nullspace SVD per step and a pinv per round."""
    A, b = problem.A, problem.b
    m, n = problem.m, problem.n
    x = np.zeros(n)
    outer = 0
    while outer < maxiter:
        outer += 1
        r = A @ x - b
        zmask = _zero_mask(r)
        kernel = nullspace_basis(A[zmask])
        guard = 0
        while kernel.shape[1]:
            guard += 1
            if guard > m + n:
                raise RuntimeError("zero-set growth stalled; residual ties too degenerate")
            d = kernel[:, 0]
            x = x + _best_step(r[~zmask], A[~zmask] @ d) * d
            r = A @ x - b
            zmask = _zero_mask(r)
            kernel = nullspace_basis(A[zmask])
        r_star = r[~zmask]
        if r_star.size == 0:
            return x, outer, True
        A_z_pinv = pinv(A[zmask])
        s = A_z_pinv.T @ (A[~zmask].T @ np.sign(r_star))
        if norm_inf(s) <= 1.0:
            return x, outer, True
        x = x + c * (A_z_pinv @ (np.abs(s) > 1.0).astype(float))
    return x, outer, False


@pytest.mark.parametrize("seed", [1, 7])
def test_perturbation_matches_the_two_svd_reference(seed):
    # small-batch round 0: every fit keeps its rounds and verdict, and x
    # moves at most at rounding level
    for inst in WORKLOADS["small-batch"].inputs(seed, 0):
        x, rounds, converged = _perturbation_reference(inst.problem)
        report = fit_perturbation(inst.problem)
        assert (report.iterations, report.converged) == (rounds, converged), inst.key
        assert np.linalg.norm(report.x - x) <= 1e-12 * np.linalg.norm(x), inst.key
