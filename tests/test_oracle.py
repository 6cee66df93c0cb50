import itertools

import numpy as np
import pytest

from l1fit import ALL_METHODS, MlmProblem, oracle, oracle_solve, solve
from support import oracle_loop, random_problem


def test_square_system_exact():
    rng = np.random.default_rng(60)
    A = rng.standard_normal((3, 3))
    p = rng.standard_normal(3)
    report = oracle_solve(MlmProblem(A, A @ p))
    assert report.cost <= 1e-10
    assert np.allclose(report.x, p)


def test_scalar_fit_is_median():
    prob = MlmProblem(np.ones((3, 1)), np.array([1.0, 2.0, 10.0]))
    report = oracle_solve(prob)
    assert report.x == pytest.approx([2.0])
    assert report.cost == pytest.approx(9.0)


def test_median_property_even_count():
    prob = MlmProblem(np.ones((4, 1)), np.array([0.0, 1.0, 5.0, 9.0]))
    report = oracle_solve(prob)
    assert 1.0 <= report.x[0] <= 5.0  # any median minimizes


def test_oracle_lower_bounds_every_solver():
    rng = np.random.default_rng(61)
    prob = random_problem(rng, 6, 2)
    best = oracle_solve(prob).cost
    for method in ALL_METHODS:
        assert solve(prob, method).cost >= best - 1e-9


def test_size_guard():
    rng = np.random.default_rng(62)
    with pytest.raises(ValueError):
        oracle_solve(random_problem(rng, 15, 2))
    with pytest.raises(ValueError):
        oracle_solve(random_problem(rng, 8, 5))


def test_all_subsets_singular():
    # a zero A fails the reduction's rank test too: the rank error of every route
    prob = MlmProblem(np.zeros((4, 2)), np.ones(4))
    with pytest.raises(ValueError, match="column rank below n"):
        oracle_solve(prob)
    # sigma_min about 3.5e-14 passes the rank test, but no 2 x 2 determinant
    # reaches 1e-12 of its Hadamard bound: the search itself broke down
    A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13], [1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(RuntimeError, match="singular"):
        oracle_solve(MlmProblem(A, np.ones(4)))


@pytest.mark.parametrize("m,n,scale", [
    (10, 4, 1e80), (10, 4, 1e-85), (8, 3, 1e200), (8, 3, 1e-200), (12, 2, 1e-170)])
def test_extreme_scales_of_a_keep_the_nonsingular_subsets(m, n, scale):
    # the determinant and its Hadamard bound used to overflow or vanish
    # together here, and every subset read as singular
    base = random_problem(np.random.default_rng(63), m, n)
    prob = MlmProblem(scale * base.A, base.b)
    lp = solve(prob, "L1-LP")
    assert lp.converged
    report, unscaled = oracle_solve(prob), oracle_solve(base)
    assert report.iterations == unscaled.iterations
    assert report.cost == pytest.approx(lp.cost, rel=1e-9)
    assert report.cost == pytest.approx(unscaled.cost, rel=1e-9)


def test_tie_breaks_lexicographically():
    # two disjoint optimal interpolations; the first subset in
    # lexicographic order must win deterministically
    A = np.array([[1.0], [1.0], [1.0], [1.0]])
    b = np.array([0.0, 0.0, 2.0, 2.0])
    first = oracle_solve(MlmProblem(A, b))
    second = oracle_solve(MlmProblem(A, b))
    assert first.x == pytest.approx(second.x)
    assert first.x == pytest.approx([0.0])  # subset {0} precedes {2}


def assert_matches_loop(problem):
    report = oracle_solve(problem)
    x, cost, evaluated = oracle_loop(problem)
    assert report.iterations == evaluated
    assert report.cost == pytest.approx(cost, rel=1e-12, abs=0.0)
    assert np.allclose(report.x, x, rtol=0.0, atol=1e-9)
    return report


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m", range(6, 15))
def test_blocks_match_the_subset_loop(m, n):
    rng = np.random.default_rng(1000 * m + n)
    assert_matches_loop(random_problem(rng, m, n))


def test_duplicate_rows_are_skipped():
    rng = np.random.default_rng(63)
    A = rng.standard_normal((8, 3))
    A[1:3] = A[0]
    report = assert_matches_loop(MlmProblem(A, rng.standard_normal(8)))
    # C(8,3) = 56 subsets, less the 16 holding at least two copies of row 0
    assert report.iterations == 40


@pytest.mark.parametrize("b", [
    [-5.0, 7.0, 0.0, 2.0, -5.0, 7.0],  # tied rows 2 and 3, the smaller x first
    [-5.0, 7.0, 2.0, 0.0, -5.0, 7.0],  # the later tied row holds the smaller x
    [-5.0, 0.0, 2.0, 7.0, -5.0, 7.0],  # tied rows 1 and 2
    [-5.0, 7.0, -5.0, 2.0, 0.0, 7.0],  # tied rows 3 and 4
])
def test_ties_keep_the_first_subset_across_blocks(b):
    # x = 0 and x = 2 both cost exactly 26
    first = min(i for i, v in enumerate(b) if v in (0.0, 2.0))
    report = oracle_solve(MlmProblem(np.ones((6, 1)), np.array(b)))
    assert report.cost == 26.0
    assert report.x[0] == b[first]
    assert report.iterations == 6


def test_singular_blocks_do_not_end_the_search():
    rng = np.random.default_rng(65)
    A = rng.standard_normal((6, 2))
    A[1:4] = A[0] * np.array([[2.0], [-1.0], [3.0]])
    # the first three subsets, (0,1) (0,2) (0,3), are all singular
    report = assert_matches_loop(MlmProblem(A, rng.standard_normal(6)))
    assert report.iterations == 15 - 6
    # a rank-one matrix makes all 120 subsets singular and raises the rank error
    rank_one = np.outer(rng.standard_normal(10), rng.standard_normal(3))
    with pytest.raises(ValueError, match="column rank below n"):
        oracle_solve(MlmProblem(rank_one, rng.standard_normal(10)))


@pytest.mark.parametrize("m,n", [(1, 1), (6, 2), (9, 3), (14, 4)])
def test_subsets_are_the_combinations_in_order_and_read_only(m, n):
    rows = oracle._subsets(m, n)
    assert rows.tolist() == [list(c) for c in itertools.combinations(range(m), n)]
    assert rows.dtype == np.intp and not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 1
    assert oracle._subsets(m, n) is rows  # enumerated once per shape
