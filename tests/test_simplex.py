import numpy as np
import pytest

from l1fit import MlmProblem, fit_linprog, fit_via_residual, oracle_solve, residual_linprog, simplex
from l1fit.linalg import default_rank_tol
from l1fit.residual_solvers import RESIDUAL_METHODS
from l1fit.simplex import _start_rows, _tied_optimal, l1_vertex
from support import (bench_problem, dependent_top_rows_problem, highs_cost, highs_tied_bound,
                     kahan, near_rank_deficient_problem, tall_problem, vertex_certificate)


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


@pytest.mark.parametrize("seed, m, n, c", [
    (25, 14, 4, 0.05), (12, 64, 16, 0.05), (16, 64, 16, 0.1), (26, 64, 16, 0.1), (35, 64, 16, 0.1),
])
def test_rank_below_n_in_rounding_rejected(seed, m, n, c):
    # the start basis passes the row-distance test, but a step finds no
    # breakpoint; the descent used to fail with an IndexError there
    problem = near_rank_deficient_problem(seed, m, n, c)
    with pytest.raises(ValueError, match="column rank"):
        fit_linprog(problem)


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
    assert cost == pytest.approx(highs_cost(problem.A, problem.b), rel=1e-9)


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
    # both exact routes start at the least-squares rows; on seed 17 they are
    # optimal, on seed 18 they are not, and the simplex has to step
    walked = bench_problem(64, 16, 0.25, 18)
    assert fit_via_residual(walked, "linprog").iterations > 0
    monkeypatch.setattr("l1fit.simplex._STEPS_PER_DIM", 0)
    report = fit_linprog(walked)
    assert not report.converged and report.iterations == 0
    report = fit_via_residual(walked, "linprog")
    assert not report.converged and report.iterations == 0


def test_matches_scipy_reference():
    rng = np.random.default_rng(13)
    for _ in range(10):
        A = rng.standard_normal((12, 4))
        b = rng.standard_normal(12)
        cost = np.sum(np.abs(A @ l1_vertex(A, b).x - b))
        assert cost == pytest.approx(highs_cost(A, b), rel=1e-9)


def test_restored_basis_is_feasible_on_bench_instance():
    # on this instance the basis of the perturbed optimum is not optimal
    # for the original right-hand side; the second phase repairs it
    problem = bench_problem(256, 128, 0.25, 1200101)
    report = fit_linprog(problem)
    assert report.converged
    assert report.cost == pytest.approx(highs_cost(problem.A, problem.b), rel=1e-9)


def test_warm_start_at_the_cold_basis_takes_no_steps():
    problem = bench_problem(256, 128, 0.25, 400201)
    cold = l1_vertex(problem.A, problem.b)
    start = cold.rows.copy()
    warm = l1_vertex(problem.A, problem.b, rows=start)
    assert cold.certified and warm.certified and warm.steps == 0
    assert np.array_equal(warm.x, cold.x)
    assert np.array_equal(start, cold.rows)  # the caller's rows are not edited


def test_certified_start_is_factored_once(monkeypatch):
    # the warm start at the cold optimum certifies in the first phase with
    # no step taken, so its A_Z^-1 serves the second phase unrefactored
    rng = np.random.default_rng(23)
    A, b = rng.standard_normal((64, 16)), rng.standard_normal(64)
    cold = l1_vertex(A, b)
    assert cold.certified and cold.steps > 0
    assert not _tied_optimal(A, b, cold.x)
    inverses = []
    inv = np.linalg.inv

    def counting(a):
        inverses.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    warm = l1_vertex(A, b, rows=cold.rows)
    assert warm.certified and warm.steps == 0
    assert np.array_equal(warm.x, cold.x)
    assert len(inverses) == 1


def test_warm_start_at_the_cold_basis_on_s200101():
    # the cold basis is not optimal for the perturbed first phase here (see
    # test_second_phase_reaches_optimum_on_s200101), so the warm run moves
    # away from it and back
    problem = bench_problem(256, 128, 0.25, 200101)
    cold = l1_vertex(problem.A, problem.b)
    warm = l1_vertex(problem.A, problem.b, rows=cold.rows)
    assert warm.certified
    assert np.max(np.abs(warm.x - cold.x)) <= 1e-10


def test_warm_start_on_dependent_rows_starts_cold():
    problem = bench_problem(64, 16, 0.25, 12)
    cold = l1_vertex(problem.A, problem.b)
    rows = cold.rows.copy()
    rows[1] = rows[0]
    warm = l1_vertex(problem.A, problem.b, rows=rows)
    assert (warm.steps, warm.certified) == (cold.steps, cold.certified)
    assert np.array_equal(warm.rows, cold.rows) and np.array_equal(warm.x, cold.x)


@pytest.mark.parametrize("rows", [[0, 1], [0, 1, 2, 3], [0, 1, 6], [-1, 0, 1], [0.0, 1.0, 2.0]])
def test_warm_start_rows_validated(rows):
    rng = np.random.default_rng(19)
    with pytest.raises(ValueError, match="rows"):
        l1_vertex(rng.standard_normal((6, 3)), rng.standard_normal(6), rows=rows)


@pytest.mark.parametrize("seed", [100000, 100100, 100200, 700000, 700100, 700200])
def test_consistent_square_input_certified_at_its_start(seed):
    # b = A p (the square benchmark's g0.0 inputs): the first n rows already
    # interpolate every row, and L1-LP walked 192-252 steps to prove it
    problem = bench_problem(256, 128, 0.0, seed)
    report = fit_linprog(problem)
    assert report.converged and report.iterations == 0
    p = np.linalg.lstsq(problem.A, problem.b, rcond=None)[0]
    assert np.linalg.norm(report.x - p) <= 1e-10 * np.linalg.norm(p)


def test_consistent_input_certified_without_the_tied_row_qr(monkeypatch):
    # every row is tied, so c = -A_S^T sign(r_S) is zero and u_T = 0
    # certifies; the start rows' independence test reads their inverse, so
    # no QR is taken at all
    problem = bench_problem(64, 16, 0.0, 100000)
    shapes = []
    qr = np.linalg.qr

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    vertex = l1_vertex(problem.A, problem.b)
    assert (vertex.steps, vertex.certified) == (0, True)
    assert shapes == []


def _one_column(outliers):
    """a = (1, .5, .5, .5, 1, ...), b = a except ``outliers`` rows of a = 1, b = 2.

    The start vertex x = 1 ties the first four rows, so u_T solves
    (1, .5, .5, .5) . u_T = c = ``outliers``; it is optimal when c <= 2.5.
    """
    a = np.array([1.0, 0.5, 0.5, 0.5] + [1.0] * outliers)
    return a[:, None], np.concatenate([a[:4], np.full(outliers, 2.0)])


def test_tied_start_certified_by_projections(monkeypatch):
    # c = 2: the minimum-norm u_T = a_T c / ||a_T||^2 has u_0 = 8/7 > 1, and
    # the Douglas-Rachford rounds move it into the box, e.g. to (1, 2/3, 2/3, 2/3)
    A, b = _one_column(2)
    a_T = A[:4, 0]
    assert np.max(np.abs(a_T * 2.0 / (a_T @ a_T))) > 1.0
    vertex = l1_vertex(A, b)
    assert (vertex.steps, vertex.certified) == (0, True)
    assert vertex.x == pytest.approx([1.0], abs=1e-15)
    monkeypatch.setattr("l1fit.simplex._TIED_PROJECTIONS", 0)
    assert not _tied_optimal(A, b, vertex.x)


def _not_optimal_tied_start():
    """40 x 5: the first 16 rows are exact, the other 24 shifted up by 1 to 3."""
    rng = np.random.default_rng(3)
    A = rng.standard_normal((40, 5))
    b = A @ rng.standard_normal(5)
    b[16:] += rng.uniform(1.0, 3.0, 24)
    return A, b


@pytest.mark.parametrize("build", [lambda: _one_column(4), _not_optimal_tied_start],
                         ids=["one-column", "40x5"])
def test_tied_start_that_is_not_optimal_runs_the_simplex(monkeypatch, build):
    # the start vertex ties more than n rows but no u_T in the box exists
    # (c = 4 > 2.5 on the one-column case); the simplex runs as without the test
    A, b = build()
    vertex = l1_vertex(A, b)
    assert vertex.certified and vertex.steps > 0
    assert np.sum(np.abs(A @ vertex.x - b)) == pytest.approx(highs_cost(A, b), rel=1e-9)
    monkeypatch.setattr("l1fit.simplex._tied_optimal", lambda A, b, x: False)
    untested = l1_vertex(A, b)
    assert (untested.steps, untested.certified) == (vertex.steps, vertex.certified)
    assert np.array_equal(untested.rows, vertex.rows) and np.array_equal(untested.x, vertex.x)


def _l1_lp_start(m, n, seed):
    """(A, b, x) of L1-LP's start vertex on the small-batch instance m x n of ``seed``."""
    problem = bench_problem(m, n, 0.25, seed)
    A, b = problem.A, problem.b
    rows = simplex._least_squares_rows(A, b)
    return A, b, b[rows] @ np.linalg.inv(A[rows].T)


def _tall_start(monkeypatch):
    """(A, b, x) of L1-HP's crossover start on the tall 512 x 128 input: 384 rows tie."""
    starts = []
    tied_optimal = simplex._tied_optimal

    def recording(A, b, x):
        starts.append((A, b, x))
        return tied_optimal(A, b, x)

    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_tied_optimal", recording)
        fit_via_residual(tall_problem(), "homotopy")
    return starts[0]


# Start vertices that tie more than n rows, with c != 0: L1-LP's on the
# small-batch input (m, n, generator seed), or the tall crossover's (None),
# and whether some u_T in the box fits.  The feasible small ones failed the
# 50 alternating projections that the test ran before Douglas-Rachford, and
# the simplex then walked 1-2 steps back to them.  The infeasible ones are
# proved so at the first round (True) or later.
TIED_STARTS = {
    "8x4/s100002": ((8, 4, 100002), True, False),
    "6x2/s100309": ((6, 2, 100309), True, False),
    "11x4/s700523": ((11, 4, 700523), True, False),
    "tall": (None, True, False),
    "7x3/s100001": ((7, 3, 100001), False, True),
    "8x4/s700002": ((8, 4, 700002), False, True),
    "8x4/s700611": ((8, 4, 700611), False, False),
    "6x2/s700209": ((6, 2, 700209), False, False),
    "14x4/s100517": ((14, 4, 100517), False, False),
}


@pytest.mark.parametrize("name", TIED_STARTS)
def test_tied_row_test_agrees_with_highs(monkeypatch, name):
    source, feasible, at_first_round = TIED_STARTS[name]
    A, b, x = _l1_lp_start(*source) if source else _tall_start(monkeypatch)
    assert (highs_tied_bound(A, b, x, simplex._TIE_TOL) <= 1.0) == feasible
    # the Farkas exit is the module's only use of norm1, twice per round
    norms = []
    norm1 = simplex.norm1

    def counting(v):
        norms.append(v)
        return norm1(v)

    monkeypatch.setattr(simplex, "norm1", counting)
    # a feasible input passes, so the exit never fired on it; an infeasible
    # one fails by the exit's proof, not by running out of rounds
    assert _tied_optimal(A, b, x) == feasible
    rounds = len(norms) // 2
    if not feasible:
        assert rounds < simplex._TIED_PROJECTIONS
        assert (rounds == 1) == at_first_round
    elif source:
        # a former false negative: L1-LP's start is certified where it is
        vertex = l1_vertex(A, b, rows=simplex._least_squares_rows(A, b))
        assert (vertex.steps, vertex.certified) == (0, True)
        assert np.array_equal(vertex.x, x)


def test_start_without_a_least_squares_ranking():
    # A has full column rank, but A^T A is singular in floating point, so
    # the normal equations rank no rows and L1-LP starts at the first rows.
    # Of the three vertices, the one through rows 0 and 2 costs 1.5 and the
    # other two cost 3
    A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10], [1.0, 1.0 + 2e-10]])
    b = np.array([0.0, 1.0, 5.0])
    assert simplex._least_squares_rows(A, b) is None
    report = fit_linprog(MlmProblem(A, b))
    assert report.converged and report.cost == pytest.approx(1.5, rel=1e-9)


@pytest.mark.parametrize("sparsity,seed", [(0.25, 100001), (0.75, 700202)])
def test_fit_linprog_starts_at_the_least_squares_rows(sparsity, seed):
    # L1-LP starts at the rows of smallest least-squares residual, most of
    # an optimal basis: the same optimum as from the first independent rows
    # in fewer steps
    problem = bench_problem(256, 128, sparsity, seed)
    A, b = problem.A, problem.b
    first = l1_vertex(A, b, rows=_start_rows(A))
    warm = l1_vertex(A, b, rows=simplex._least_squares_rows(A, b))
    report = fit_linprog(problem)
    assert report.iterations == warm.steps and np.array_equal(report.x, warm.x)
    assert report.converged and first.certified
    assert report.iterations < first.steps
    assert report.cost == pytest.approx(np.sum(np.abs(A @ first.x - b)), rel=1e-12)


def test_least_squares_start_passes_the_tied_row_test():
    # the least-squares rows of this input are an optimal vertex that ties
    # more than n rows, so the tied-row test certifies it; from the first
    # rows the simplex walked 6 steps
    report = fit_linprog(bench_problem(14, 4, 0.25, 100008))
    assert report.converged and report.iterations == 0


@pytest.mark.parametrize("sparsity", [0.0, 0.25])
@pytest.mark.parametrize("m,n,seed", [(40, 5, 4), (64, 16, 10), (256, 128, 3)])
@pytest.mark.parametrize("scale", [1e155, 1e300])
def test_fit_linprog_far_above_unit_scale(scale, m, n, seed, sparsity):
    # A^T A of the least-squares start would overflow unless A is scaled
    # first; a RuntimeWarning fails the suite
    base = bench_problem(m, n, sparsity, seed)
    report = fit_linprog(base)
    scaled = fit_linprog(MlmProblem(scale * base.A, scale * base.b))
    assert scaled.converged and scaled.iterations == report.iterations
    if sparsity:
        assert scaled.cost == pytest.approx(scale * report.cost, rel=1e-12)
    else:  # b = A p: both costs are at rounding level
        assert scaled.cost <= 1e-12 * scale * np.sum(np.abs(base.b))


def test_folded_terms_match_the_per_step_update(monkeypatch):
    # 215 basis changes from the first rows, across the refactorization at
    # step 200; folding after every step is the per-step Sherman-Morrison
    # update.  Every verdict still comes from a fresh factorization: the
    # start, step 200 and the first phase's end
    problem = bench_problem(256, 128, 0.25, 100001)
    A, b = problem.A, problem.b
    inverses = []
    inv = np.linalg.inv

    def counting(a):
        inverses.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    folded = l1_vertex(A, b, rows=_start_rows(A))
    assert len(inverses) == 3
    monkeypatch.setattr(simplex, "_FOLD_EVERY", 1)
    per_step = l1_vertex(A, b, rows=_start_rows(A))
    assert len(inverses) == 6
    assert folded.steps > simplex._REFACTOR_EVERY
    assert (folded.steps, folded.certified) == (per_step.steps, per_step.certified)
    assert np.array_equal(folded.rows, per_step.rows)
    assert np.linalg.norm(folded.x - per_step.x) <= 1e-12 * np.linalg.norm(per_step.x)


def test_basis_inverse_of_an_independent_basis_is_the_inverse():
    rng = np.random.default_rng(29)
    A = rng.standard_normal((40, 8))
    rows = np.array([3, 9, 0, 17, 25, 30, 11, 38])
    inv_T = simplex._basis_inverse(A, rows, default_rank_tol(A))
    assert inv_T.tobytes() == np.linalg.inv(A[rows].T).tobytes()


def test_basis_inverse_rejects_dependent_rows():
    rng = np.random.default_rng(29)
    A = rng.standard_normal((40, 8))
    rows = np.array([3, 9, 3, 17, 25, 30, 11, 38])
    assert simplex._basis_inverse(A, rows, default_rank_tol(A)) is None


def test_basis_inverse_rejects_a_kahan_block_that_the_qr_diagonal_accepts():
    # A_Z = K^T: the QR of A_Z^T = K has K's diagonal, none of it near tol,
    # but sigma_min(K) is below tol, and the inverse shows it
    A = np.vstack([kahan(128).T, np.random.default_rng(3).standard_normal((128, 128))])
    rows, tol = np.arange(128), default_rank_tol(A)
    diagonal = np.abs(np.diag(np.linalg.qr(A[rows].T, mode="r")))
    assert np.min(diagonal) > 1e6 * tol  # the QR-diagonal test would accept A_Z
    assert np.linalg.svd(A[rows], compute_uv=False)[-1] < tol
    assert simplex._basis_inverse(A, rows, tol) is None


@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_warm_start_far_out_of_range(scale):
    # A_Z^-T has entries near 1/scale: its test must not square them
    rng = np.random.default_rng(23)
    A, b = rng.standard_normal((64, 16)), rng.standard_normal(64)
    cold = l1_vertex(A, b)
    warm = l1_vertex(scale * A, b, rows=cold.rows)
    assert warm.certified and warm.steps == 0
    assert np.array_equal(warm.rows, cold.rows)
    assert np.allclose(scale * warm.x, cold.x, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_tied_start_certified_far_out_of_range(scale):
    # the Gram of A_T would underflow or overflow unless A_T is scaled first
    A, b = _one_column(2)
    vertex = l1_vertex(scale * A, b)
    assert (vertex.steps, vertex.certified) == (0, True)
    assert scale * vertex.x == pytest.approx([1.0], abs=1e-15)


def test_start_factorizations_take_no_qr(monkeypatch):
    # L1-LP's starts are tested through their inverses, and the residual
    # methods' crossovers are warm starts, so the only QRs left are
    # reduce_problem's four 256 x 32 panels
    problem = bench_problem(256, 128, 0.25, 100001)
    shapes = []
    qr = np.linalg.qr

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    assert fit_linprog(problem).converged and shapes == []
    for name in RESIDUAL_METHODS:
        shapes.clear()
        assert fit_via_residual(problem, name).converged
        assert shapes == [(256, 32)] * 4, name


@pytest.mark.parametrize("scale", [1e-200, 1e-170, 1e-160, 1e160, 1e170, 1e200])
def test_start_rows_far_out_of_range(scale):
    # rows 0 and 1 are equal, so the start falls back to _start_rows, whose
    # squared norms underflowed to a false rank verdict below 1e-160 and
    # overflowed above 1e160 until it scaled A by a power of two
    rng = np.random.default_rng(0)
    A, b = rng.standard_normal((8, 3)), rng.standard_normal(8)
    A[1] = A[0]
    reference = l1_vertex(A, b)
    vertex = l1_vertex(scale * A, b)
    assert _start_rows(scale * A).tolist() == _start_rows(A).tolist() == [0, 2, 3]
    assert vertex.certified and reference.certified
    assert np.array_equal(vertex.rows, reference.rows)
    assert np.allclose(scale * vertex.x, reference.x, rtol=1e-12, atol=0.0)


def test_tied_rows_of_rank_below_n_fail_the_test():
    # three tied rows on the first axis leave the Gram of A_T singular: the
    # test fails rather than raise, and the simplex decides
    A = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    x = np.array([1.0, 0.0])
    b = A @ x + np.array([0.0, 0.0, 0.0, 1.0, -2.0])
    assert not _tied_optimal(A, b, x)


@pytest.mark.parametrize("m,n,sparsity,seed", [
    (40, 5, 0.25, 4), (64, 16, 0.25, 18), (64, 16, 0.75, 10), (256, 128, 0.25, 100001)])
def test_blands_rule_at_every_step_reaches_the_same_optimum(monkeypatch, m, n, sparsity, seed):
    # no zero-length step occurs on the pinned inputs, so with the stall
    # limit at 0 every step takes the lowest-index leaving row
    problem = bench_problem(m, n, sparsity, seed)
    A, b = problem.A, problem.b
    reference = l1_vertex(A, b)
    monkeypatch.setattr(simplex, "_STALL_LIMIT", 0)
    vertex = l1_vertex(A, b)
    assert vertex.steps > 0 and vertex.certified and reference.certified
    cost = np.abs(A @ vertex.x - b).sum()
    assert cost == pytest.approx(np.abs(A @ reference.x - b).sum(), rel=1e-12)
