import warnings

import numpy as np
import pytest

from l1fit import (
    MlmProblem,
    cost1,
    fit_linprog,
    oracle_solve,
    recover,
    reduce_problem,
    solve,
    split_by_residual,
)
from support import dependent_top_rows_problem, paper_pair, random_problem


def test_problem_validation():
    with pytest.raises(ValueError):
        MlmProblem(np.ones((2, 3)), np.ones(2))  # m < n
    with pytest.raises(ValueError):
        MlmProblem(np.ones((3, 2)), np.ones(2))  # rhs length
    with pytest.raises(ValueError):
        MlmProblem(np.array([[np.inf], [1.0]]), np.ones(2))
    with pytest.raises(ValueError, match="2-d matrix"):
        MlmProblem(np.ones(3), np.ones(3))


def test_reduce_identity_top_block():
    # A = [I2; [1, 1]], b = (1, 2, 4): in the paper's pair the bottom block
    # passes through, so D = [-1, -1, 1] and w = 1 + 2 - 4 = -1; the
    # reduction's one orthonormal row is that pair divided by sqrt(3), up to sign
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0, 4.0])
    prob = MlmProblem(A, b)
    D, w = paper_pair(prob)
    assert np.allclose(D, [[-1.0, -1.0, 1.0]])
    assert np.allclose(w, [-1.0])
    rs = reduce_problem(prob)
    sign = np.sign(rs.D[0, 2])
    assert np.allclose(sign * rs.D, D / np.sqrt(3.0))
    assert np.allclose(sign * rs.w, w / np.sqrt(3.0))


def test_reduce_zero_bottom_block():
    A = np.vstack([np.eye(2), np.zeros((2, 2))])
    b = np.array([1.0, 2.0, 3.0, 4.0])
    rs = reduce_problem(MlmProblem(A, b))
    assert np.allclose(rs.D, np.hstack([np.zeros((2, 2)), np.eye(2)]))
    assert np.allclose(rs.w, -b[2:])


def test_residuals_satisfy_reduced_constraint():
    rng = np.random.default_rng(20)
    prob = random_problem(rng, 6, 3)
    rs = reduce_problem(prob)
    for _ in range(10):
        x = rng.standard_normal(3)
        r = prob.A @ x - prob.b
        gap = np.max(np.abs(rs.D @ r - rs.w))
        assert gap <= 1e-9 * (1.0 + np.max(np.abs(rs.w)))


def test_rank_deficient_top_block_matches_lp():
    # rows 1..3 repeat row 0, so the top 4 x 4 block has rank 1; built from
    # that block, the reduction lost the optimum and L1-RES claimed
    # convergence at cost 28.7 against the direct LP's 8.9
    rng = np.random.default_rng(5)
    A = rng.standard_normal((40, 4))
    A[1:4] = A[0] * [[2.0], [-1.0], [3.0]]
    b = A @ rng.standard_normal(4)
    b[rng.choice(40, 10, replace=False)] += rng.standard_normal(10)
    prob = MlmProblem(A, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rs = reduce_problem(prob)
    r = A @ rng.standard_normal(4) - b
    assert np.max(np.abs(rs.D @ r - rs.w)) <= 1e-9 * (1.0 + np.max(np.abs(rs.w)))
    report = solve(prob, "L1-RES")
    exact = fit_linprog(prob)
    assert report.converged
    assert abs(report.cost - exact.cost) <= 1e-9 * exact.cost


@pytest.mark.parametrize("prob", [
    pytest.param(random_problem(np.random.default_rng(28), 12, 4), id="nonsingular-top-block"),
    pytest.param(dependent_top_rows_problem(), id="singular-top-block"),
])
def test_reduction_gives_orthonormal_left_null_basis(prob):
    rs = reduce_problem(prob)
    assert rs.D.shape == (prob.m - prob.n, prob.m)
    assert np.max(np.abs(rs.D @ rs.D.T - np.eye(prob.m - prob.n))) <= 1e-12
    assert np.max(np.abs(rs.D @ prob.A)) <= 1e-12 * np.max(np.abs(prob.A))
    assert np.array_equal(rs.w, -(rs.D @ prob.b))


def test_rank_deficient_matrix_raises():
    A = np.array([[1.0, 2.0], [2.0, 4.0], [-1.0, -2.0]])
    with pytest.raises(ValueError, match="column rank"):
        reduce_problem(MlmProblem(A, np.ones(3)))


def test_recover_consistent_system():
    rng = np.random.default_rng(21)
    A = rng.standard_normal((7, 3))
    p = rng.standard_normal(3)
    prob = MlmProblem(A, A @ p)
    rs = reduce_problem(prob)
    x = recover(prob, rs, np.zeros(7))
    assert np.linalg.norm(x - p) <= 1e-10 * np.linalg.norm(p)


def test_recover_annihilation_and_shape():
    rng = np.random.default_rng(22)
    prob = random_problem(rng, 5, 2)
    rs = reduce_problem(prob)
    assert np.allclose(recover(prob, rs, -prob.b), np.zeros(2))
    with pytest.raises(ValueError):
        recover(prob, rs, np.zeros(4))


def test_recover_matches_oracle():
    rng = np.random.default_rng(23)
    prob = random_problem(rng, 3, 2)
    oracle = oracle_solve(prob)
    rs = reduce_problem(prob)
    x = recover(prob, rs, oracle.residual)
    assert np.linalg.norm(x - oracle.x) <= 1e-9 * (1.0 + np.linalg.norm(oracle.x))


def test_recover_reduce_roundtrip_relative():
    rng = np.random.default_rng(24)
    for m, n in [(6, 2), (9, 4), (20, 7)]:
        A = rng.standard_normal((m, n))
        p = rng.standard_normal(n)
        prob = MlmProblem(A, A @ p)
        x = recover(prob, reduce_problem(prob), np.zeros(m))
        assert np.linalg.norm(x - p) <= 1e-10 * np.linalg.norm(p)


def test_split_exact_fit():
    rng = np.random.default_rng(25)
    A = rng.standard_normal((5, 2))
    x = rng.standard_normal(2)
    prob = MlmProblem(A, A @ x)
    split = split_by_residual(prob, x)
    assert split.m0 == 5
    assert split.nonzero_set.size == 0
    with pytest.raises(ValueError, match="x must have length 2"):
        split_by_residual(prob, np.ones(3))


def test_split_pattern():
    prob = MlmProblem(np.eye(4), np.zeros(4))
    x = np.array([0.0, 1.0, 0.0, -2.0])  # r = (0, 1, 0, -2)
    split = split_by_residual(prob, x)
    assert list(split.zero_set) == [0, 2]
    assert list(split.nonzero_set) == [1, 3]
    assert np.allclose(split.r_star, [1.0, -2.0])
    assert split.A_star.shape == (2, 4)
    assert split.m0 == 2


def test_split_stabilizes_for_solver_residuals():
    rng = np.random.default_rng(26)
    prob = random_problem(rng, 8, 3)
    report = fit_linprog(prob)
    tight = split_by_residual(prob, report.x, zero_tol=1e-10)
    default = split_by_residual(prob, report.x, zero_tol=1e-8)
    assert np.array_equal(tight.zero_set, default.zero_set)
    assert tight.m0 >= prob.n
    exact = split_by_residual(prob, report.x, zero_tol=0.0)
    assert set(exact.zero_set) <= set(default.zero_set)


def test_cost1_definition():
    prob = MlmProblem(np.array([[1.0], [1.0]]), np.array([0.0, 3.0]))
    assert cost1(prob, np.array([1.0])) == pytest.approx(3.0)


def test_residual_invariant_under_right_factor():
    # the optimal residual depends on the row space only: multiplying A by
    # an invertible right factor leaves it unchanged (entrywise when the
    # optimum is unique, which Gaussian data gives almost surely)
    rng = np.random.default_rng(27)
    for _ in range(5):
        A = rng.standard_normal((8, 3))
        b = rng.standard_normal(8)
        q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        P = q1 @ np.diag([0.5, 1.0, 2.0]) @ q2
        base = fit_linprog(MlmProblem(A, b))
        factored = fit_linprog(MlmProblem(A @ P, b))
        assert np.allclose(base.residual, factored.residual, atol=1e-6)
        assert base.cost == pytest.approx(factored.cost, rel=1e-6)
