import dataclasses
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
)
from l1fit.bench import gen_instance
from l1fit.linalg import default_rank_tol
from l1fit.reduction import _SVD_WORK, _block_qr
from support import bench_problem, dependent_top_rows_problem, kahan, paper_pair, random_problem


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
    assert np.allclose(sign * -(rs.D @ b), w / np.sqrt(3.0))


def test_reduce_zero_bottom_block():
    A = np.vstack([np.eye(2), np.zeros((2, 2))])
    b = np.array([1.0, 2.0, 3.0, 4.0])
    rs = reduce_problem(MlmProblem(A, b))
    assert np.allclose(rs.D, np.hstack([np.zeros((2, 2)), np.eye(2)]))
    assert np.allclose(-(rs.D @ b), -b[2:])


def test_residuals_satisfy_reduced_constraint():
    rng = np.random.default_rng(20)
    prob = random_problem(rng, 6, 3)
    rs = reduce_problem(prob)
    w = -(rs.D @ prob.b)
    for _ in range(10):
        x = rng.standard_normal(3)
        r = prob.A @ x - prob.b
        gap = np.max(np.abs(rs.D @ r - w))
        assert gap <= 1e-9 * (1.0 + np.max(np.abs(w)))


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
    w = -(rs.D @ b)
    assert np.max(np.abs(rs.D @ r - w)) <= 1e-9 * (1.0 + np.max(np.abs(w)))
    report = solve(prob, "L1-RES")
    exact = fit_linprog(prob)
    assert report.converged
    assert abs(report.cost - exact.cost) <= 1e-9 * exact.cost


@pytest.mark.parametrize("prob", [
    pytest.param(random_problem(np.random.default_rng(28), 12, 4), id="nonsingular-top-block"),
    pytest.param(dependent_top_rows_problem(), id="singular-top-block"),
])
def test_reduction_gives_orthonormal_left_null_basis(prob):
    # thin factors A = Q R; the derived D = Q2^T completes Q to an orthonormal basis
    rs = reduce_problem(prob)
    m, n = prob.m, prob.n
    assert rs.Q.shape == (m, n) and rs.R.shape == (n, n)
    assert np.max(np.abs(rs.Q.T @ rs.Q - np.eye(n))) <= 1e-12
    assert np.max(np.abs(rs.Q @ rs.R - prob.A)) <= 1e-12 * np.max(np.abs(prob.A))
    assert rs.D.shape == (m - n, m)
    assert np.max(np.abs(rs.D @ rs.D.T - np.eye(m - n))) <= 1e-12
    assert np.max(np.abs(rs.D @ rs.Q)) <= 1e-12
    assert np.max(np.abs(rs.D @ prob.A)) <= 1e-12 * np.max(np.abs(prob.A))


def test_rank_deficient_matrix_raises():
    A = np.array([[1.0, 2.0], [2.0, 4.0], [-1.0, -2.0]])
    with pytest.raises(ValueError, match="column rank"):
        reduce_problem(MlmProblem(A, np.ones(3)))


SHAPES = [(12, 3), (40, 8), (64, 16), (256, 128)]


def _svd_rejects(A):
    """The plain rank test: sigma_min of A's QR factor R at most default_rank_tol(A)."""
    return np.linalg.svd(np.linalg.qr(A)[1], compute_uv=False)[-1] <= default_rank_tol(A)


def _reduction_rejects(A):
    try:
        reduce_problem(MlmProblem(A, np.zeros(A.shape[0])))
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("m,n", SHAPES)
def test_rank_decision_is_the_svd_decision(m, n):
    rng = np.random.default_rng(m + n)
    U = np.linalg.qr(rng.standard_normal((m, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    s = np.geomspace(1.0, 1e-3, n)
    tol = default_rank_tol((U * s) @ V.T)
    cases = []
    for factor in [0.5, 0.99, 1.01, 2.0, 1e3, 1e8]:  # sigma_min around factor * tol
        s[-1] = factor * tol
        cases.append((U * s) @ V.T)
    cases.append(U @ kahan(n))
    for _ in range(2):  # columns scaled over 16 decades
        cases.append(rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-8.0, 8.0, n))
    # far out of range: R^T R underflows or overflows, and the SVD decides
    cases += [1e-160 * rng.standard_normal((m, n)), 1e160 * rng.standard_normal((m, n))]
    decisions = [_reduction_rejects(A) for A in cases]
    assert decisions == [_svd_rejects(A) for A in cases]
    assert decisions[0] and not decisions[5]


def test_kahan_matrix_rejected_despite_its_diagonal():
    # no diagonal entry of R is near the rank tolerance, but sigma_min is
    A = np.linalg.qr(np.random.default_rng(3).standard_normal((256, 128)))[0] @ kahan(128)
    R = np.linalg.qr(A)[1]
    assert np.min(np.abs(np.diag(R))) > 1e6 * default_rank_tol(A)
    with pytest.raises(ValueError, match="column rank"):
        reduce_problem(MlmProblem(A, np.zeros(256)))


@pytest.mark.parametrize("seed", [100000, 100001, 700202])
def test_well_conditioned_reduction_takes_no_svd(monkeypatch, seed):
    problem, _ = gen_instance(256, 128, seed)
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    rs = reduce_problem(problem)
    assert calls == []
    assert np.allclose(rs.Q @ rs.R, problem.A)


@pytest.mark.parametrize("m,n", [(256, 128), (1024, 128), (100, 40), (80, 33)])
def test_block_qr_is_a_thin_qr(m, n):
    # 100 x 40 and 80 x 33 end on a ragged panel of 8 and 1 columns
    A = np.random.default_rng(m + n).standard_normal((m, n))
    Q, R = _block_qr(A)
    assert Q.shape == (m, n) and R.shape == (n, n)
    assert np.max(np.abs(Q.T @ Q - np.eye(n))) <= 1e-13
    assert np.max(np.abs(Q @ R - A)) <= 1e-13 * np.max(np.abs(A))
    assert np.all(np.tril(R, -1) == 0.0)


@pytest.mark.parametrize("m,n", [(12, 3), (40, 1), (64, 32)])
def test_block_qr_of_one_panel_is_householder(m, n):
    A = np.random.default_rng(m + n).standard_normal((m, n))
    for block, householder in zip(_block_qr(A), np.linalg.qr(A)):
        assert block.tobytes() == householder.tobytes()


def _counting_linalg(monkeypatch):
    """Record the argument shapes of np.linalg.qr and np.linalg.svd calls."""
    calls = {"qr": [], "svd": []}

    def counting(name):
        f = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            calls[name].append(a.shape)
            return f(a, *args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    return calls


def test_certified_reduction_factors_by_panels(monkeypatch):
    problem, _ = gen_instance(256, 128, 100001)
    calls = _counting_linalg(monkeypatch)
    rs = reduce_problem(problem)
    assert calls == {"qr": [(256, 32)] * 4, "svd": []}
    assert np.max(np.abs(rs.Q @ rs.R - problem.A)) <= 1e-13 * np.max(np.abs(problem.A))


# m n^2 <= _SVD_WORK (3072 = 48 * 8^2) takes one thin SVD of A; from 49 x 8
# on, Householder QR and the SVD of R
@pytest.mark.parametrize("m,n,calls", [
    (12, 3, {"qr": [], "svd": [(12, 3)]}),
    (48, 8, {"qr": [], "svd": [(48, 8)]}),
    (49, 8, {"qr": [(49, 8)], "svd": [(8, 8)]}),
    (64, 32, {"qr": [(64, 32)], "svd": [(32, 32)]}),
], ids=["12-3", "48-8", "49-8", "64-32"])
def test_one_panel_reduction_takes_no_certificate(monkeypatch, m, n, calls):
    # up to _PANEL columns block Gram-Schmidt is one Householder QR, so the
    # certificate would license nothing: one SVD decides at once, of A on
    # small inputs, else of R
    assert (m * n * n <= _SVD_WORK) == (calls["qr"] == [])
    problem = bench_problem(m, n, 0.25, 100001)
    recorded = _counting_linalg(monkeypatch)
    cholesky = []
    monkeypatch.setattr(np.linalg, "cholesky", lambda G: cholesky.append(G))
    rs = reduce_problem(problem)
    assert recorded == calls and cholesky == []
    assert np.max(np.abs(rs.Q.T @ rs.Q - np.eye(n))) <= 1e-13
    assert np.max(np.abs(rs.Q @ rs.R - problem.A)) <= 1e-13 * np.max(np.abs(problem.A))


def test_ill_conditioned_reduction_falls_back_to_householder(monkeypatch):
    # graded singular values down to 1e-6: full rank, far above the rank
    # tolerance, but beyond what the Cholesky certificate can prove
    rng = np.random.default_rng(6)
    U = np.linalg.qr(rng.standard_normal((256, 128)))[0]
    V = np.linalg.qr(rng.standard_normal((128, 128)))[0]
    A = (U * np.geomspace(1.0, 1e-6, 128)) @ V.T
    calls = _counting_linalg(monkeypatch)
    rs = reduce_problem(MlmProblem(A, np.zeros(256)))
    assert calls == {"qr": [(256, 128)], "svd": [(128, 128)]}
    assert np.max(np.abs(rs.Q @ rs.R - A)) <= 1e-13 * np.max(np.abs(A))


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


@pytest.mark.parametrize("m,n", [(6, 2), (14, 4), (48, 8)])
def test_svd_branch_recovers_by_its_inverse(m, n):
    # R^-1 = V S^-1 takes the place of the LU solve with R = S V^T
    rng = np.random.default_rng(m)
    prob = random_problem(rng, m, n)
    rs = reduce_problem(prob)
    assert m * n * n <= _SVD_WORK
    assert np.max(np.abs(rs.R_inv @ rs.R - np.eye(n))) <= 1e-13
    r = rng.standard_normal(m)
    solved = np.linalg.solve(rs.R, rs.Q.T @ (prob.b + r))
    assert np.linalg.norm(recover(prob, rs, r) - solved) <= 1e-13 * np.linalg.norm(solved)
    assert np.array_equal(recover(prob, dataclasses.replace(rs, R_inv=None), r), solved)


def test_qr_branch_keeps_no_inverse():
    rng = np.random.default_rng(25)
    assert reduce_problem(random_problem(rng, 49, 8)).R_inv is None


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
