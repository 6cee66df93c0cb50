import numpy as np
import pytest

from l1fit import MlmProblem, fit_linprog, fit_via_residual, oracle_solve, residual_linprog
from l1fit.simplex import _start_rows, l1_vertex
from support import bench_problem, dependent_top_rows_problem, vertex_certificate


def _highs_cost(A, b):
    """min ||A x - b||_1 by HiGHS on the direct LP with free x."""
    scipy_linprog = pytest.importorskip("scipy.optimize").linprog
    m, n = A.shape
    ref = scipy_linprog(np.concatenate([np.zeros(n), np.ones(2 * m)]),
                        A_eq=np.hstack([A, -np.eye(m), np.eye(m)]), b_eq=b,
                        bounds=[(None, None)] * n + [(0, None)] * (2 * m), method="highs-ds")
    assert ref.status == 0
    return float(np.sum(np.abs(A @ ref.x[:n] - b)))


def test_single_variable():
    vertex = l1_vertex(np.array([[1.0]]), np.array([1.0]))
    assert vertex.x == pytest.approx([1.0])
    assert vertex.certified and vertex.steps == 0


def test_degenerate_tie():
    # every x in [0, 1] costs 1; the vertex interpolates one of the two rows
    A = np.ones((2, 1))
    b = np.array([0.0, 1.0])
    vertex = l1_vertex(A, b)
    assert vertex.certified
    assert float(vertex.x[0]) in (0.0, 1.0)
    assert np.sum(np.abs(A @ vertex.x - b)) == pytest.approx(1.0)


def test_square_system_interpolates_every_row():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((5, 5))
    b = rng.standard_normal(5)
    vertex = l1_vertex(A, b)
    assert vertex.certified and vertex.steps == 0
    assert vertex.rows.tolist() == [0, 1, 2, 3, 4]
    assert np.max(np.abs(A @ vertex.x - b)) <= 1e-12 * (1.0 + np.max(np.abs(b)))


def test_no_constraints():
    # with no constraint on r the origin is optimal
    res = residual_linprog(np.zeros((0, 3)), np.zeros(0))
    assert res.converged
    assert np.array_equal(res.r, np.zeros(3))


def test_infeasible():
    # the rows of D are dependent, and w is not in its range
    D = np.array([[1.0, 0.5, 0.2], [2.0, 1.0, 0.4]])
    with pytest.raises(ValueError, match="range"):
        residual_linprog(D, np.array([1.0, 3.0]))


def test_infeasibility_below_the_perturbation_is_found():
    # w misses the range of D by 1e-7, the size of the first phase's perturbation
    D = np.array([[1.0, 0.5, 0.2], [2.0, 1.0, 0.4]])
    with pytest.raises(ValueError, match="range"):
        residual_linprog(D, np.array([1.0, 2.0 + 1e-7]))


def test_rank_below_n_rejected():
    A = np.ones((6, 2))
    with pytest.raises(ValueError, match="column rank"):
        l1_vertex(A, np.arange(6.0))


def test_nan_input_rejected():
    with pytest.raises(ValueError):
        l1_vertex(np.array([[np.nan]]), np.array([1.0]))
    with pytest.raises(ValueError):
        l1_vertex(np.array([[1.0]]), np.array([np.inf]))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        l1_vertex(np.ones((3, 2)), np.ones(2))
    with pytest.raises(ValueError, match="rows"):
        l1_vertex(np.ones((2, 3)), np.ones(2))


def test_vertex_is_basic_and_feasible():
    # the rows are independent, interpolated, and certify the vertex
    rng = np.random.default_rng(10)
    for _ in range(15):
        A = rng.standard_normal((9, 4))
        b = rng.standard_normal(9)
        vertex = l1_vertex(A, b)
        assert vertex.certified
        assert np.unique(vertex.rows).size == 4
        assert np.linalg.matrix_rank(A[vertex.rows]) == 4
        r = A @ vertex.x - b
        assert np.max(np.abs(r[vertex.rows])) <= 1e-12 * (1.0 + np.max(np.abs(b)))
        assert vertex_certificate(A, b, vertex.x) <= 1.0 + 1e-9


def test_objective_dominates_random_feasible_points():
    rng = np.random.default_rng(11)
    for _ in range(10):
        A = rng.standard_normal((7, 3))
        b = rng.standard_normal(7)
        best = np.sum(np.abs(A @ l1_vertex(A, b).x - b))
        for _ in range(30):
            x = rng.standard_normal(3)
            assert best <= np.sum(np.abs(A @ x - b)) + 1e-12


def test_deterministic():
    problem = bench_problem(64, 16, 0.25, 12)
    first = l1_vertex(problem.A, problem.b)
    second = l1_vertex(problem.A, problem.b)
    assert first.steps == second.steps
    assert np.array_equal(first.rows, second.rows)
    assert np.array_equal(first.x, second.x)


def test_start_rows_take_lowest_independent_rows():
    A = np.array([[1.0, 0.0, 0.0],
                  [2.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0],
                  [1.0, 1.0, 0.0],
                  [0.0, 0.0, 3.0],
                  [0.0, 1.0, 1.0]])
    assert _start_rows(A).tolist() == [0, 2, 4]
    assert _start_rows(A[[4, 5, 0, 1]]).tolist() == [0, 1, 2]


def test_singular_start_block():
    # rows 0 and 1 are dependent, so the start skips row 1
    rng = np.random.default_rng(16)
    A = rng.standard_normal((12, 3))
    A[1] = -2.0 * A[0]
    b = rng.standard_normal(12)
    assert _start_rows(A).tolist() == [0, 2, 3]
    vertex = l1_vertex(A, b)
    assert vertex.certified
    assert np.sum(np.abs(A @ vertex.x - b)) == pytest.approx(
        oracle_solve(MlmProblem(A, b)).cost, rel=1e-12)


def test_dependent_top_rows_instance():
    # rows 1..3 are multiples of row 0: both exact routes reach the optimum
    problem = dependent_top_rows_problem()
    assert _start_rows(problem.A).tolist() == [0, 4, 5, 6]
    for report in (fit_linprog(problem), fit_via_residual(problem, "linprog")):
        assert report.converged
        assert report.cost == pytest.approx(8.9231265855698, rel=1e-9)


def _split_residual_lp(rng, rows, cols):
    """The kernel input of residual_linprog for a pair D = [-C I] of the paper's form."""
    D = np.hstack([-rng.standard_normal((rows, cols - rows)), np.eye(rows)])
    w = rng.standard_normal(rows)
    _, _, Vt = np.linalg.svd(D)
    return Vt[rows:].T, -np.linalg.lstsq(D, w, rcond=None)[0]


def _direct_lp(rng, rows, cols):
    """The kernel input of fit_linprog: (A, b) itself."""
    return rng.standard_normal((rows, cols)), rng.standard_normal(rows)


@pytest.mark.parametrize("build", [_split_residual_lp, _direct_lp])
def test_crash_start_vertex_is_basic_and_feasible(build):
    # both routes start at their first n rows, which for the residual route
    # is the residual basis r_1..r_n = 0, and end at a certified vertex
    rng = np.random.default_rng(14)
    for _ in range(15):
        A, b = build(rng, 4, 7) if build is _split_residual_lp else build(rng, 7, 3)
        assert _start_rows(A).tolist() == list(range(A.shape[1]))
        vertex = l1_vertex(A, b)
        assert vertex.certified
        r = A @ vertex.x - b
        assert np.max(np.abs(r[vertex.rows])) <= 1e-12 * (1.0 + np.max(np.abs(b)))
        assert vertex_certificate(A, b, vertex.x) <= 1.0 + 1e-9


def _small_random_problems(seed, count):
    rng = np.random.default_rng(seed)
    for i in range(count):
        m, n = 6 + i % 9, 2 + i % 3
        yield MlmProblem(rng.standard_normal((m, n)), rng.standard_normal(m))


@pytest.mark.parametrize("problems", [
    lambda: [bench_problem(256, 128, 0.75, seed) for seed in (100002, 700102)],
    lambda: _small_random_problems(18, 20),
], ids=["square", "tiny"])
def test_converged_means_certified(problems):
    # the certificate recomputed at the returned x holds on both exact
    # routes; every row off the n interpolated ones has a nonzero residual
    # here, so its sign is meaningful
    for problem in problems():
        for report in (fit_linprog(problem), fit_via_residual(problem, "linprog")):
            assert report.converged
            assert vertex_certificate(problem.A, problem.b, report.x) <= 1.0 + 1e-9


def test_second_phase_reaches_optimum_on_s200101():
    # on this instance the optimum of the perturbed first phase is 2.6e-6
    # above the true optimum, with ||s||_inf = 0.9987 on the perturbed
    # signs; the second phase on the original b reaches the optimum
    problem = bench_problem(256, 128, 0.25, 200101)
    vertex = l1_vertex(problem.A, problem.b)
    assert vertex.certified
    cost = np.sum(np.abs(problem.A @ vertex.x - problem.b))
    assert cost == pytest.approx(_highs_cost(problem.A, problem.b), rel=1e-9)


def test_consistent_instances_interpolate():
    for m, n, seed in [(256, 128, 300000), (9, 3, 300001)]:
        problem = bench_problem(m, n, 0.0, seed)
        vertex = l1_vertex(problem.A, problem.b)
        assert vertex.certified
        p = np.linalg.lstsq(problem.A, problem.b, rcond=None)[0]
        assert np.linalg.norm(vertex.x - p) <= 1e-10 * np.linalg.norm(p)


def test_degenerate_small_instances_match_oracle():
    # a quarter of the rows are noisy, so on 21 of these 27 instances the
    # optimum interpolates more than n rows: a degenerate vertex
    for j in range(27):
        problem = bench_problem(6 + j % 9, 2 + j % 3, 0.25, 100 + j)
        vertex = l1_vertex(problem.A, problem.b)
        assert vertex.certified
        cost = np.sum(np.abs(problem.A @ vertex.x - problem.b))
        ref = oracle_solve(problem).cost
        assert cost <= ref * (1.0 + 1e-9) + 1e-12


def test_step_budget_reports_not_certified(monkeypatch):
    problem = bench_problem(64, 16, 0.25, 17)
    monkeypatch.setattr("l1fit.simplex._STEPS_PER_DIM", 0)
    report = fit_linprog(problem)
    assert not report.converged and report.iterations == 0
    assert not fit_via_residual(problem, "linprog").converged


def test_matches_scipy_reference():
    rng = np.random.default_rng(13)
    for _ in range(10):
        A = rng.standard_normal((12, 4))
        b = rng.standard_normal(12)
        cost = np.sum(np.abs(A @ l1_vertex(A, b).x - b))
        assert cost == pytest.approx(_highs_cost(A, b), rel=1e-9)


def test_restored_basis_is_feasible_on_bench_instance():
    # on this instance the basis of the perturbed optimum is not optimal
    # for the original right-hand side; the second phase repairs it
    problem = bench_problem(256, 128, 0.25, 1200101)
    report = fit_linprog(problem)
    assert report.converged
    assert report.cost == pytest.approx(_highs_cost(problem.A, problem.b), rel=1e-9)
