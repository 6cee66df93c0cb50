import numpy as np
import pytest

from l1fit import MlmProblem, fit_linprog, fit_perturbation, gen_instance, oracle_solve
from l1fit.direct import _best_step, _zero_mask
from support import dependent_top_rows_problem, highs_cost, random_problem


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
    with pytest.raises(ValueError):
        fit_perturbation(prob, maxiter=0)


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
