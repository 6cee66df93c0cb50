import numpy as np
import pytest

from l1fit import bench
from l1fit.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LpStandardForm, _crash_basis, lp_solve


def test_single_variable():
    sol = lp_solve(LpStandardForm(np.array([1.0]), np.array([[1.0]]), np.array([1.0])))
    assert sol.status == OPTIMAL
    assert sol.point == pytest.approx([1.0])
    assert sol.objective == pytest.approx(1.0)


def test_degenerate_tie():
    sol = lp_solve(
        LpStandardForm(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
    )
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0)
    assert sorted(sol.point) == pytest.approx([0.0, 1.0])


def test_infeasible():
    sol = lp_solve(
        LpStandardForm(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))
    )
    assert sol.status == INFEASIBLE


def test_unbounded():
    # min -y1 s.t. y1 - y2 = 1: increase both without bound
    sol = lp_solve(
        LpStandardForm(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([1.0]))
    )
    assert sol.status == UNBOUNDED


def test_no_constraints():
    sol = lp_solve(LpStandardForm(np.array([1.0, 2.0]), np.zeros((0, 2)), np.zeros(0)))
    assert sol.status == OPTIMAL
    assert np.array_equal(sol.point, np.zeros(2))


def test_nan_input_rejected():
    with pytest.raises(ValueError):
        LpStandardForm(np.array([np.nan]), np.array([[1.0]]), np.array([1.0]))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        LpStandardForm(np.ones(3), np.ones((2, 2)), np.ones(2))


def _random_lp(rng, rows, cols):
    A = rng.standard_normal((rows, cols))
    feasible = np.abs(rng.standard_normal(cols))
    b = A @ feasible
    c = np.abs(rng.standard_normal(cols))
    return LpStandardForm(c, A, b)


def test_vertex_is_basic_and_feasible():
    rng = np.random.default_rng(10)
    for _ in range(15):
        lp = _random_lp(rng, 4, 9)
        sol = lp_solve(lp)
        assert sol.status == OPTIMAL
        assert np.count_nonzero(np.abs(sol.point) > 1e-9) <= 4
        assert np.min(sol.point) >= -1e-9
        resid = lp.eq_matrix @ sol.point - lp.eq_rhs
        assert np.max(np.abs(resid)) <= 1e-9 * (1.0 + np.max(np.abs(lp.eq_rhs)))


def test_objective_dominates_random_feasible_points():
    rng = np.random.default_rng(11)
    for _ in range(10):
        lp = _random_lp(rng, 3, 7)
        sol = lp_solve(lp)
        assert sol.status == OPTIMAL
        # project random nonnegative vectors onto the equality constraints by
        # solving for slack in a fixed nonsingular column block
        A, b, c = lp.eq_matrix, lp.eq_rhs, lp.cost
        for _ in range(30):
            y = np.abs(rng.standard_normal(7))
            block = A[:, :3]
            y[:3] = 0.0
            fix = np.linalg.solve(block, b - A @ y)
            y[:3] = fix
            if np.min(y) < 0.0:
                continue  # projection left the cone; not a feasible sample
            assert sol.objective <= c @ y + 1e-9


def test_deterministic():
    rng = np.random.default_rng(12)
    lp = _random_lp(rng, 5, 12)
    first = lp_solve(lp)
    second = lp_solve(lp)
    assert first.status == second.status
    assert first.iterations == second.iterations
    assert np.array_equal(first.point, second.point)


def test_matches_scipy_reference():
    scipy_linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(13)
    for _ in range(10):
        lp = _random_lp(rng, 4, 10)
        mine = lp_solve(lp)
        ref = scipy_linprog(lp.cost, A_eq=lp.eq_matrix, b_eq=lp.eq_rhs,
                            bounds=(0, None), method="highs")
        assert mine.status == OPTIMAL and ref.status == 0
        assert mine.objective == pytest.approx(ref.fun, rel=1e-8, abs=1e-9)
    # the highly degenerate split-variable programs this package builds
    for _ in range(5):
        D = rng.standard_normal((3, 8))
        w = rng.standard_normal(3)
        lp = LpStandardForm(np.ones(16), np.hstack([D, -D]), w)
        mine = lp_solve(lp)
        ref = scipy_linprog(lp.cost, A_eq=lp.eq_matrix, b_eq=lp.eq_rhs,
                            bounds=(0, None), method="highs")
        assert mine.objective == pytest.approx(ref.fun, rel=1e-8)


def _highs_objective(lp):
    scipy_linprog = pytest.importorskip("scipy.optimize").linprog
    ref = scipy_linprog(lp.cost, A_eq=lp.eq_matrix, b_eq=lp.eq_rhs,
                        bounds=(0, None), method="highs")
    assert ref.status == 0
    return ref.fun


def _split_residual_lp(rng, rows, cols):
    """min ||r||_1 s.t. D r = w as [D, -D], with D = [-C I] as reduce_problem builds it."""
    D = np.hstack([-rng.standard_normal((rows, cols - rows)), np.eye(rows)])
    return LpStandardForm(np.ones(2 * cols), np.hstack([D, -D]), rng.standard_normal(rows))


def _direct_lp(rng, rows, cols):
    """min ||A x - b||_1 as [-I, I, A, -A] over (r+, r-, x+, x-), as fit_linprog builds it."""
    A = rng.standard_normal((rows, cols))
    eye = np.eye(rows)
    return LpStandardForm(np.concatenate([np.ones(2 * rows), np.zeros(2 * cols)]),
                          np.hstack([-eye, eye, A, -A]), rng.standard_normal(rows))


@pytest.mark.parametrize("build", [_split_residual_lp, _direct_lp])
def test_crash_start_vertex_is_basic_and_feasible(build):
    # both programs have a positive unit column in every row after the row
    # flip, so they start at the residual basis without a first phase
    rng = np.random.default_rng(14)
    for _ in range(15):
        lp = build(rng, 4, 7)
        sol = lp_solve(lp)
        assert sol.status == OPTIMAL
        assert np.count_nonzero(np.abs(sol.point) > 1e-9) <= 4
        assert np.min(sol.point) >= -1e-9
        resid = lp.eq_matrix @ sol.point - lp.eq_rhs
        assert np.max(np.abs(resid)) <= 1e-9 * (1.0 + np.max(np.abs(lp.eq_rhs)))


def test_crash_basis_takes_lowest_positive_unit_column():
    A = np.array([[0.0, 3.0, 1.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, -1.0, 1.0, 0.0],
                  [2.0, 0.0, 0.0, 0.0, 1.0, 1.0]])
    # row 0: columns 1 and 2 qualify; row 1: column 3 is negative; row 2: 0 and 5
    assert _crash_basis(A).tolist() == [1, -1, 0]


def test_partly_covered_rows_match_reference():
    # a positive unit column in row 0 (scaled) and row 2, a negative one in
    # row 1, which must not start basic, and none in rows 3 and 4
    rng = np.random.default_rng(15)
    for _ in range(10):
        dense = rng.standard_normal((5, 5))
        y_dense = np.abs(rng.standard_normal(5))
        dense *= np.sign(dense @ y_dense)[:, None]  # keep every rhs positive
        unit = np.zeros((5, 3))
        unit[0, 0], unit[1, 1], unit[2, 2] = 2.0, -1.0, 1.0
        A = np.hstack([dense, unit])
        b = A @ np.concatenate([y_dense, [0.5, 0.0, 0.5]])
        lp = LpStandardForm(np.abs(rng.standard_normal(8)), A, b)
        sol = lp_solve(lp)
        assert sol.status == OPTIMAL
        assert np.min(sol.point) >= -1e-9
        assert np.max(np.abs(A @ sol.point - b)) <= 1e-9 * (1.0 + np.max(np.abs(b)))
        assert sol.objective == pytest.approx(_highs_objective(lp), rel=1e-8, abs=1e-9)


def test_partly_covered_rows_infeasible():
    # row 0 has the positive unit column y0, rows 1 and 2 have none (y1 is a
    # negative unit column); rows 0 and 2 force y0 = 1 - 3 < 0
    A = np.array([[1.0, 0.0, 1.0, 1.0],
                  [0.0, -1.0, 1.0, -1.0],
                  [0.0, 0.0, 1.0, 1.0]])
    sol = lp_solve(LpStandardForm(np.ones(4), A, np.array([1.0, 2.0, 3.0])))
    assert sol.status == INFEASIBLE


def test_infeasibility_below_the_perturbation_is_found():
    # y1 + y2 = 1 + 1e-7 and y0 + y1 + y2 = 1 force y0 = -1e-7.  Row 1 starts
    # at y0, row 0 at an artificial.  The perturbed first phase is feasible,
    # so the negative y0 only shows on the restored right-hand side, in a row
    # with no negative entry.
    A = np.array([[0.0, 1.0, 1.0],
                  [1.0, 1.0, 1.0]])
    sol = lp_solve(LpStandardForm(np.ones(3), A, np.array([1.0 + 1e-7, 1.0])))
    assert sol.status == INFEASIBLE


def test_restored_basis_is_feasible_on_bench_instance():
    # the direct LP of a 256x128 benchmark instance on which the basis of the
    # perturbed optimum is infeasible for the original right-hand side
    problem, _ = bench.gen_instance(256, 128, 1200101)
    b = bench.add_sparse_noise(problem.b, 0.25, 0.25, 1200101)
    m, n = problem.A.shape
    eye = np.eye(m)
    lp = LpStandardForm(np.concatenate([np.ones(2 * m), np.zeros(2 * n)]),
                        np.hstack([-eye, eye, problem.A, -problem.A]), b)
    sol = lp_solve(lp)
    assert sol.status == OPTIMAL
    scale = max(1.0, np.max(np.abs(lp.eq_matrix)), np.max(np.abs(b)))
    assert np.min(sol.point) >= -1e-9 * scale
    assert sol.objective == pytest.approx(_highs_objective(lp), rel=1e-9)
