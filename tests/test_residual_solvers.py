import dataclasses

import numpy as np
import pytest

from l1fit import MlmProblem, add_sparse_noise, fit_linprog, gen_instance, recover, reduce_problem
from l1fit.linalg import norm1, norm2
from l1fit.simplex import l1_vertex
from l1fit.residual_solvers import (
    _TRY_EVERY,
    RESIDUAL_METHODS,
    SolverParams,
    _continuation,
    _lambda_levels,
    _newton_direction,
    _orthonormal_pair,
    _vertex_rows,
    fit_via_residual,
    residual_adm,
    residual_gpsr,
    residual_homotopy,
    residual_ist,
    residual_linprog,
    residual_pob,
    residual_tnipm,
)
from support import (
    bench_problem,
    bp_enumerate,
    dependent_top_rows_problem,
    highs_cost,
    paper_pair,
    quickstart_problem,
    random_problem,
    vertex_certificate,
)

ITERATIVE = [residual_gpsr, residual_tnipm, residual_homotopy, residual_ist, residual_adm, residual_pob]
ALL_SOLVERS = [residual_linprog] + ITERATIVE
# the iterative solvers that name vertex rows along the way, not only at their end
TRYING = ["gpsr", "tnipm", "ist", "adm", "pob"]
ITERATIVE_METHODS = ["gpsr", "tnipm", "homotopy", "ist", "adm", "pob"]


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_zero_rhs_gives_zero(solver):
    D = np.array([[1.0, 0.5, -0.3], [0.2, -1.0, 0.8]])
    res = solver(D, np.zeros(2))
    assert np.max(np.abs(res.r)) <= 1e-6
    assert res.converged


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_two_column_vertex(solver):
    # feasible vertices of D r = w are (1, 0) and (0, 2); the first wins
    D = np.array([[1.0, 0.5]])
    w = np.array([1.0])
    res = solver(D, w)
    assert np.allclose(res.r, [1.0, 0.0], atol=1e-4)


def test_linprog_identity_block_carries_w():
    D = np.hstack([np.zeros((2, 3)), np.eye(2)])
    w = np.array([0.7, -1.2])
    res = residual_linprog(D, w)
    assert np.allclose(res.r, [0.0, 0.0, 0.0, 0.7, -1.2], atol=1e-12)
    assert res.objective == pytest.approx(norm1(w))


def test_linprog_matches_enumeration():
    rng = np.random.default_rng(30)
    for _ in range(10):
        D = rng.standard_normal((3, 7))
        w = rng.standard_normal(3)
        _, ref = bp_enumerate(D, w)
        res = residual_linprog(D, w)
        assert res.objective == pytest.approx(ref, rel=1e-9)


def test_linprog_on_left_null_basis_of_singular_top_block():
    # reduce_problem's orthonormal left null basis D of A (D A = 0) for a top
    # block of rank 1: a pair that is not of the form [-C I]
    prob = dependent_top_rows_problem()
    rs = reduce_problem(prob)
    assert np.allclose(rs.D @ rs.D.T, np.eye(rs.D.shape[0]))
    res = residual_linprog(rs.D, rs.w)
    assert res.converged
    assert res.objective == pytest.approx(fit_linprog(prob).cost, rel=1e-9)


def test_linprog_dependent_consistent_rows():
    # the second row doubles the first and w agrees with it
    D = np.array([[1.0, 0.5, 0.2], [2.0, 1.0, 0.4]])
    res = residual_linprog(D, np.array([1.0, 2.0]))
    assert res.converged
    assert np.allclose(res.r, [1.0, 0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("seed,sparsity", [(700102, 0.75), (7000101, 0.25)])
def test_homotopy_reaches_optimum_on_bench_instances(seed, sparsity):
    # on the paper's D = [-C I] the path claimed convergence 2.4e-3 and
    # 1.4e-1 above the optimum on these instances
    problem, _ = gen_instance(256, 128, seed)
    prob = MlmProblem(problem.A, add_sparse_noise(problem.b, sparsity, 0.25, seed))
    report = fit_via_residual(prob, "homotopy")
    ref = fit_linprog(prob).cost
    assert report.converged
    assert abs(report.cost - ref) <= 1e-3 * ref


@pytest.mark.parametrize("seed,sparsity", [(100101, 0.25), (300202, 0.75)])
@pytest.mark.parametrize("method", TRYING)
def test_iterative_converged_means_certified(method, seed, sparsity):
    # square benchmark instances on which every solver that tries along the
    # way, GPSR included, stops at a certified vertex; the certificate is
    # recomputed from the returned x alone
    problem = bench_problem(256, 128, sparsity, seed)
    report = fit_via_residual(problem, method)
    assert report.converged
    assert vertex_certificate(problem.A, problem.b, report.x) <= 1.0
    assert report.cost == pytest.approx(fit_linprog(problem).cost, rel=1e-9)


def _tall_problem():
    """The first right-hand side of the tall benchmark's 512 x 128 matrix at seed 1."""
    problem, _ = gen_instance(512, 128, 100000)
    return MlmProblem(problem.A, add_sparse_noise(problem.b, 0.25, 0.25, 100001))


NAMED_INSTANCES = {
    "quickstart": quickstart_problem,
    "s400201": lambda: bench_problem(256, 128, 0.25, 400201),
    "s100001": lambda: bench_problem(256, 128, 0.25, 100001),
    "tall512": _tall_problem,
}


@pytest.mark.parametrize("name", NAMED_INSTANCES)
@pytest.mark.parametrize("method", ITERATIVE_METHODS)
def test_named_instances_end_certified_at_the_optimum(method, name):
    # before every iterative solve ended in the crossover: on quickstart
    # L1-TNIPM reported converged=False at the optimum and L1-POB
    # converged=True 3.6e-7 above it; on s400201 L1-IST and L1-HP
    # converged=True 4.0e-8 and 8.6e-9 above; L1-GPSR spent its budget on
    # both square instances.  On the tall instance, whose optimum vanishes
    # on about 384 rows rather than 128, the other five claimed convergence
    # 6.9e-9 to 1.5e-6 above the optimum and L1-TNIPM was nonconverged
    problem = NAMED_INSTANCES[name]()
    report = fit_via_residual(problem, method)
    assert report.converged
    assert report.cost == pytest.approx(fit_linprog(problem).cost, rel=1e-9)


def _counting_simplex(monkeypatch, certified=None):
    """Record the residual solvers' l1_vertex calls; a given ``certified`` overrides the verdict."""
    calls = []

    def counted(*args, **kwargs):
        vertex = l1_vertex(*args, **kwargs)
        calls.append(vertex)
        if certified is None:
            return vertex
        return dataclasses.replace(vertex, certified=certified)

    monkeypatch.setattr("l1fit.residual_solvers.l1_vertex", counted)
    return calls


@pytest.mark.parametrize("seed", [2, 4])
@pytest.mark.parametrize("method", ITERATIVE_METHODS)
def test_near_consistent_fit_claims_no_false_optimum(monkeypatch, method, seed):
    # one row of a consistent system is off by 3e-8, below the simplex's
    # first-phase perturbation 1e-7 (1 + ||b||_inf); L1-GPSR, L1-HP and
    # L1-IST claimed convergence at cost 4.7e-8 (seed 2) and 6.0e-8 (seed 4)
    # against the optimum 3e-8.  The cost is at rounding level, so it is
    # compared relative to 1 + cost.  An uncapped crossover, retried on each
    # repeat of the rows, took up to 30 s per fit here.
    problem, _ = gen_instance(40, 5, seed)
    b = problem.b.copy()
    b[7] += 3e-8
    problem = MlmProblem(problem.A, b)
    calls = _counting_simplex(monkeypatch)
    report = fit_via_residual(problem, method)
    assert len(calls) <= 1
    if report.converged:
        assert report.cost == pytest.approx(highs_cost(problem.A, problem.b), rel=1e-9, abs=1e-9)


def test_homotopy_early_return_meets_the_constraint():
    # ||D^T w||_inf <= epsilon ends the path before its first step; the
    # answer was r = 0 with converged=True, off D r = w by all of ||w||
    D = np.array([[1.0, 0.5]])
    w = np.array([1e-9])
    res = residual_homotopy(D, w)
    assert res.converged
    assert norm2(D @ res.r - w) <= 1e-12 * norm2(w)


def _reduced_pair(problem):
    rs = reduce_problem(problem)
    return rs.D, rs.Q[:, :problem.n]


def _paper_orthonormal_pair(problem):
    D, _, N = _orthonormal_pair(*paper_pair(problem))
    return D, N


@pytest.mark.parametrize("pair", [_reduced_pair, _paper_orthonormal_pair])
def test_newton_direction_solves_the_assembled_hessian(pair):
    # the Woodbury step on D^T D = I - N N^T against a dense solve of
    # [[D^T D + diag(b1), diag(b2)], [diag(b2), diag(b1)]] d = -grad, at a
    # strictly interior (r, u) shaped like a late iterate: 12 rows near
    # r = 0 (more than n, so the kernel keeps its curvature and the dense
    # solve its accuracy) and the rest close to their bound u = |r|
    rng = np.random.default_rng(47)
    D, N = pair(random_problem(rng, 40, 8))
    m = D.shape[1]
    r = rng.standard_normal(m)
    r[:12] *= 1e-4
    u = np.abs(r) + 10.0 ** rng.uniform(-4.0, -2.0, m)
    u[:12] = np.abs(r[:12]) + 1e-3
    t = 1e6
    q1, q2 = 1.0 / (u + r), 1.0 / (u - r)
    grad = rng.standard_normal(2 * m)
    b1 = (q1 * q1 + q2 * q2) / t
    b2 = (q1 * q1 - q2 * q2) / t
    H = np.block([[D.T @ D + np.diag(b1), np.diag(b2)], [np.diag(b2), np.diag(b1)]])
    direct = np.linalg.solve(H, -grad)
    step = _newton_direction(N, grad, q1, q2, t)
    assert norm2(step - direct) <= 1e-10 * norm2(direct)


def test_vertex_rows_restore_feasibility_and_sort():
    # the kernel of D = [[1, 0, 0]] is spanned by e_1 and e_2, so k = 2 rows
    # are named; restoring D r = 1 sets r_0 = 1 before the rows are ranked
    pair = _orthonormal_pair([[1.0, 0.0, 0.0]], [1.0])
    assert list(_vertex_rows(*pair, np.array([1.0, 0.5, 3.0]))) == [0, 1]
    assert list(_vertex_rows(*pair, np.array([0.1, 0.5, 0.2]))) == [1, 2]
    assert list(_vertex_rows(*pair, np.array([0.1, 0.2, 0.5]))) == [1, 2]


@pytest.mark.parametrize("method", ITERATIVE_METHODS)
def test_iterative_methods_run_the_simplex_exactly_once(monkeypatch, method):
    # the simplex's certificate is the only one: every solve ends in one
    # crossover, L1-HP's at its path end, which the n-row vertex test used
    # to certify without a simplex call
    calls = _counting_simplex(monkeypatch)
    report = fit_via_residual(bench_problem(256, 128, 0.25, 100001), method)
    assert len(calls) == 1
    assert report.converged and calls[0].certified


@pytest.mark.parametrize("method", TRYING)
def test_uncertified_crossover_ends_the_run_at_its_try(monkeypatch, method):
    # a crossover the simplex cannot certify still ends the run where it
    # ran: the same iteration as a certified one, with converged=False and
    # the iterate restored onto D r = w
    problem = bench_problem(256, 128, 0.25, 100001)
    rs = reduce_problem(problem)
    D, w, N = rs.D, -(rs.D @ problem.b), rs.Q[:, :problem.n]
    certified = RESIDUAL_METHODS[method](D, w, N)
    calls = _counting_simplex(monkeypatch, certified=False)
    res = RESIDUAL_METHODS[method](D, w, N)
    assert len(calls) == 1
    assert certified.converged and not res.converged
    assert res.iterations == certified.iterations
    assert norm2(D @ res.r - w) <= 1e-9 * norm2(w)


def test_consistent_system_short_circuits():
    # w = -D b is rounding noise, so r = 0 is optimal without iterating
    problem, p = gen_instance(256, 128, 100000)
    for method in RESIDUAL_METHODS:
        report = fit_via_residual(problem, method)
        assert report.converged and report.iterations == 0
        assert np.linalg.norm(report.x - p) <= 1e-10 * np.linalg.norm(p)
    b = problem.b.copy()
    b[5] += 1e-6
    assert fit_via_residual(MlmProblem(problem.A, b), "linprog").iterations > 0


@pytest.mark.parametrize("solver", ITERATIVE)
def test_cross_solver_agreement(solver):
    rng = np.random.default_rng(31)
    for m, n in [(10, 3), (16, 5), (24, 8)]:
        D, w = paper_pair(random_problem(rng, m, n))
        ref = residual_linprog(D, w).objective
        res = solver(D, w)
        assert abs(res.objective - ref) <= 1e-3 * ref


@pytest.mark.parametrize("seed,solver,tol", [
    (90, residual_gpsr, 1e-4),
    (91, residual_tnipm, 1e-4),
    (92, residual_adm, 1e-3),
])
def test_quadratic_route_tracks_exact_route(seed, solver, tol):
    rng = np.random.default_rng(seed)
    m, n = (10, 5) if solver is residual_adm else (8, 4)
    for _ in range(5):
        D, w = paper_pair(random_problem(rng, m, n))
        ref = residual_linprog(D, w).objective
        assert abs(solver(D, w).objective - ref) <= tol * ref


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_feasibility_of_returned_residual(solver):
    rng = np.random.default_rng(32)
    params = SolverParams()
    for _ in range(5):
        D, w = paper_pair(random_problem(rng, 12, 4))
        res = solver(D, w, params)
        bound = max(params.epsilon, 1e-6 * (1.0 + norm2(w)))
        assert norm2(D @ res.r - w) <= bound


@pytest.mark.parametrize("solver", ITERATIVE)
def test_orthonormalizing_solvers_restore_feasibility(solver):
    rng = np.random.default_rng(34)
    for _ in range(10):
        D, w = paper_pair(random_problem(rng, 12, 4))
        res = solver(D, w)
        assert norm2(D @ res.r - w) <= 1e-12 * (1.0 + norm2(w))


@pytest.mark.parametrize("solver", ITERATIVE)
def test_orthonormalizing_solvers_reject_dependent_rows(solver):
    # the second row doubles the first; an orthonormal basis of D's row
    # space drops one constraint, and GPSR and ADM then claim convergence at
    # cost 1.22, where r = (1, 0, 0) with cost 1 is optimal
    D = np.array([[1.0, 0.5, 0.2], [2.0, 1.0, 0.4]])
    with pytest.raises(np.linalg.LinAlgError):
        solver(D, np.array([1.0, 2.0]))


@pytest.mark.parametrize("problem", [random_problem(np.random.default_rng(42), 12, 4),
                                     dependent_top_rows_problem()])
def test_orthonormal_pair_keeps_the_constraint_set(problem):
    # the paper's [-C I], and reduce_problem's orthonormal left null basis of
    # A for a singular top block, where [-C I] does not exist
    rs = reduce_problem(problem)
    D, w = paper_pair(problem) or (rs.D, rs.w)
    Dt, wt, N = _orthonormal_pair(D, w)
    k, m = D.shape
    assert Dt.shape == (k, m) and N.shape == (m, m - k)
    assert np.allclose(Dt @ Dt.T, np.eye(k), rtol=0.0, atol=1e-12)
    assert np.allclose(N.T @ N, np.eye(m - k), rtol=0.0, atol=1e-12)
    assert np.allclose(Dt @ N, 0.0, rtol=0.0, atol=1e-12)
    # every residual A x - b is feasible, for the lstsq x and for random x
    rng = np.random.default_rng(43)
    xs = [np.linalg.lstsq(problem.A, problem.b, rcond=None)[0]]
    xs += [rng.standard_normal(problem.n) for _ in range(3)]
    for x in xs:
        r = problem.A @ x - problem.b
        assert norm2(Dt @ r - wt) <= 1e-12 * (1.0 + norm2(wt))


@pytest.mark.parametrize("problem", [random_problem(np.random.default_rng(45), 12, 4),
                                     dependent_top_rows_problem()])
def test_qr_route_matches_the_paper_route(problem):
    # the pipeline solves on D = Q2^T with kernel Q1; the paper's D (the
    # [-C I] of a nonsingular top block, Q2^T of a singular one) must cut
    # out the same residuals: null(D) = range(A), and equal optima
    rs = reduce_problem(problem)
    D, w = paper_pair(problem) or (rs.D, rs.w)
    m, n = problem.m, problem.n
    Q, R = rs.Q, rs.R
    scale = np.max(np.abs(problem.A))
    assert Q.shape == (m, m) and R.shape == (n, n)
    assert np.allclose(Q.T @ Q, np.eye(m), rtol=0.0, atol=1e-12)
    assert np.allclose(Q[:, :n] @ R, problem.A, rtol=0.0, atol=1e-12 * scale)
    assert np.allclose(Q[:, n:].T @ problem.A, 0.0, rtol=0.0, atol=1e-12 * scale)
    assert np.allclose(D @ Q[:, :n], 0.0, rtol=0.0, atol=1e-12 * np.max(np.abs(D)))
    pipeline = fit_via_residual(problem, "linprog").cost
    paper = norm1(problem.A @ recover(problem, rs, residual_linprog(D, w).r) - problem.b)
    direct = fit_linprog(problem).cost
    assert pipeline == pytest.approx(direct, rel=1e-9)
    assert paper == pytest.approx(direct, rel=1e-9)


def test_driver_rejects_a_reduction_of_another_shape():
    rng = np.random.default_rng(46)
    prob = random_problem(rng, 10, 3)
    with pytest.raises(ValueError, match="reduced system"):
        fit_via_residual(prob, "linprog", reduced=reduce_problem(random_problem(rng, 9, 3)))
    with pytest.raises(ValueError, match="reduced system"):
        fit_via_residual(prob, "adm", reduced=reduce_problem(random_problem(rng, 10, 4)))
    rs = reduce_problem(prob)
    with pytest.raises(ValueError, match="reduced system"):
        fit_via_residual(prob, "linprog", reduced=dataclasses.replace(rs, D=rs.D[1:]))


def test_driver_rejects_a_reduction_of_another_matrix():
    # same shapes, so only the factorization itself can tell them apart
    rng = np.random.default_rng(49)
    prob = random_problem(rng, 30, 4)
    other = reduce_problem(random_problem(rng, 30, 4))
    with pytest.raises(ValueError, match="not a QR factorization"):
        fit_via_residual(prob, "adm", reduced=other)
    swapped = MlmProblem(prob.A[:, [1, 0, 2, 3]], prob.b)
    with pytest.raises(ValueError, match="not a QR factorization"):
        fit_via_residual(prob, "linprog", reduced=reduce_problem(swapped))
    # Q and R factor A but D is the other's: L1-RES, L1-ADM, L1-TNIPM and
    # L1-GPSR reported converged=True at cost 24.252, the optimum being 23.684
    with pytest.raises(ValueError, match="does not annihilate"):
        fit_via_residual(prob, "tnipm", reduced=dataclasses.replace(reduce_problem(prob), D=other.D))


@pytest.mark.parametrize("method", RESIDUAL_METHODS)
def test_driver_takes_a_precomputed_reduction_bit_for_bit(method):
    prob = random_problem(np.random.default_rng(48), 12, 4)
    plain = fit_via_residual(prob, method)
    reused = fit_via_residual(prob, method, reduced=reduce_problem(prob))
    assert np.array_equal(reused.x, plain.x)
    assert (reused.iterations, reused.converged) == (plain.iterations, plain.converged)


def test_driver_takes_w_from_the_problem():
    # one reduction of A serves every right-hand side: the solver's w comes
    # from problem.b, whatever reduced.w holds
    rng = np.random.default_rng(47)
    A = rng.standard_normal((14, 4))
    rs = reduce_problem(MlmProblem(A, rng.standard_normal(14)))
    for _ in range(3):
        prob = MlmProblem(A, rng.standard_normal(14))
        report = fit_via_residual(prob, "linprog", reduced=rs)
        assert report.cost == pytest.approx(fit_linprog(prob).cost, rel=1e-9)


def test_orthonormal_pair_keeps_equal_columns_equal():
    rng = np.random.default_rng(44)
    D = rng.standard_normal((3, 6))
    D[:, 4] = D[:, 1]
    Dt, _, _ = _orthonormal_pair(D, rng.standard_normal(3))
    assert np.array_equal(Dt[:, 4], Dt[:, 1])


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_deterministic(solver):
    rng = np.random.default_rng(33)
    D, w = paper_pair(random_problem(rng, 9, 3))
    first = solver(D, w)
    second = solver(D, w)
    assert np.array_equal(first.r, second.r)
    assert first.iterations == second.iterations


def test_lifted_residual_carries_n_zeros():
    rng = np.random.default_rng(41)
    for _ in range(10):
        prob = random_problem(rng, 12, 4)
        report = fit_via_residual(prob, "linprog")
        full = prob.A @ report.x - prob.b
        zeros = np.abs(full) <= 1e-8 * (1.0 + np.max(np.abs(full)))
        assert np.count_nonzero(zeros) >= prob.n


def test_linprog_scale_equivariance():
    rng = np.random.default_rng(34)
    D = rng.standard_normal((4, 9))
    w = rng.standard_normal(4)
    base = residual_linprog(D, w)
    doubled = residual_linprog(D, 2.0 * w)
    assert np.allclose(doubled.r, 2.0 * base.r, atol=1e-9)


def test_homotopy_support_bounded_along_path():
    rng = np.random.default_rng(35)
    for _ in range(5):
        D, w = paper_pair(random_problem(rng, 12, 4))
        trace = []
        residual_homotopy(D, w, support_trace=trace)
        assert trace, "path never iterated"
        assert max(trace) <= D.shape[0]


def test_homotopy_degenerate_support_raises():
    # duplicated columns tie at the first breakpoint and make the support
    # Gram matrix singular
    D = np.array([[1.0, 1.0, 0.2]])
    w = np.array([1.0])
    with pytest.raises(RuntimeError, match="support"):
        residual_homotopy(D, w)


def test_ist_objective_not_increased():
    rng = np.random.default_rng(36)
    D, w = paper_pair(random_problem(rng, 10, 3))
    params = SolverParams()
    res = residual_ist(D, w, params)
    start = 0.5 * norm2(w) ** 2  # objective value at r = 0
    final = 0.5 * norm2(D @ res.r - w) ** 2 + params.lam * res.objective
    assert final <= start + 1e-12


def test_adm_zero_rhs_short_circuits():
    D = np.array([[1.0, 0.5]])
    res = residual_adm(D, np.zeros(1))
    assert res.iterations == 0
    assert np.array_equal(res.r, np.zeros(2))


def test_pob_parameter_precondition():
    D = np.array([[1.0, 0.5]])
    w = np.array([1.0])
    with pytest.raises(ValueError, match="tau"):
        residual_pob(D, w, SolverParams(tau=0.02, mu=1.0))


def test_solver_params_validation():
    with pytest.raises(ValueError):
        SolverParams(epsilon=-1.0)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        SolverParams(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverParams(maxiter=0)
    with pytest.raises(ValueError):
        SolverParams(tau=0.0)
    with pytest.raises(ValueError):
        SolverParams(mu=-0.5)
    for lam in (-1.0, np.nan):
        with pytest.raises(ValueError, match="lam must be nonnegative"):
            SolverParams(lam=lam)


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_solvers_reject_mismatched_constraint_shapes(solver):
    with pytest.raises(ValueError, match="constraint shapes do not match"):
        solver(np.array([[1.0, 0.5, 0.0]]), np.array([1.0, 2.0]))


@pytest.mark.parametrize("solver", [residual_gpsr, residual_tnipm, residual_ist])
def test_quadratic_solvers_require_positive_lam(solver):
    with pytest.raises(ValueError):
        solver(np.array([[1.0, 0.5]]), np.array([1.0]), SolverParams(lam=0.0))


def test_driver_unknown_method():
    rng = np.random.default_rng(37)
    prob = random_problem(rng, 6, 2)
    with pytest.raises(ValueError, match="linprog"):
        fit_via_residual(prob, "sneaky")


def test_driver_square_consistent_system():
    rng = np.random.default_rng(38)
    A = rng.standard_normal((4, 4))
    p = rng.standard_normal(4)
    prob = MlmProblem(A, A @ p)
    for method in RESIDUAL_METHODS:
        report = fit_via_residual(prob, method)
        assert report.cost <= 1e-8
        assert np.linalg.norm(report.x - p) <= 1e-8 * np.linalg.norm(p)


def test_driver_report_fields():
    rng = np.random.default_rng(39)
    prob = random_problem(rng, 8, 3)
    report = fit_via_residual(prob, "linprog")
    assert report.method == "L1-RES"
    assert report.converged
    assert report.runtime_s >= 0.0
    assert report.cost == pytest.approx(norm1(prob.A @ report.x - prob.b))


def test_noise_free_driver_accuracy():
    rng = np.random.default_rng(40)
    A = rng.standard_normal((12, 5))
    p = rng.standard_normal(5)
    prob = MlmProblem(A, A @ p)
    report = fit_via_residual(prob, "linprog")
    assert np.linalg.norm(report.x - p) <= 1e-10 * np.linalg.norm(p)


class _ScriptedSolver:
    """A fake solver driven through ``_continuation``.

    A state is ``(r,)`` where r[1] tags it with the number of steps taken to
    make it; ``stat(depth, tag)`` scripts the stationarity on level ``depth``.  The
    penalty 0.03 gives three levels: 0.1, 0.05 and 0.03.
    """

    D = np.array([[1.0, 0.0]])
    w = np.array([1.0])
    lam = 0.03

    def __init__(self, stat):
        self.stat = stat
        self.levels = _lambda_levels(self.D, self.w, self.lam)
        self.steps = []  # (depth, tag stepped from, first step of the level?)

    def step(self, state, lam, first):
        self.steps.append((self.levels.index(lam), int(state[0][1]), first))
        return (np.array([0.0, float(len(self.steps))]),)

    def stationarity(self, state, lam):
        return self.stat(self.levels.index(lam), int(state[0][1]))

    def run(self, maxiter=10000, attempt=lambda r: False):
        """The loop's raw end: (iterations, tag of the end state)."""
        params = SolverParams(lam=self.lam, maxiter=maxiter)
        state, it = _continuation(self.D, self.w, params, (np.zeros(2),), self.step,
                                  self.stationarity, attempt)
        return it, int(state[0][1])

    def depths(self):
        return [depth for depth, _, _ in self.steps]


def test_continuation_reaching_last_target_converges():
    # every level needs two steps to reach its target
    fake = _ScriptedSolver(lambda depth, tag: 0.0 if tag >= 2 * (depth + 1) else 1.0)
    assert fake.levels == [0.1, 0.05, 0.03]
    it, tag = fake.run()
    assert it == 6 and tag == 6
    assert fake.depths() == [0, 0, 1, 1, 2, 2]
    assert [first for _, _, first in fake.steps] == [True, False] * 3


def test_continuation_middle_level_ends_at_first_certified_attempt():
    # level 0 is reached in one step; level 1 never reaches its target
    fake = _ScriptedSolver(lambda depth, tag: 0.0 if depth == 0 and tag >= 1 else 1.0)
    tried = []

    def attempt(r):
        tried.append(int(r[1]))
        return len(tried) == 3

    it, tag = fake.run(attempt=attempt)
    assert tried == [_TRY_EVERY, 2 * _TRY_EVERY, 3 * _TRY_EVERY]
    assert it == 3 * _TRY_EVERY and tag == it
    assert fake.depths() == [0] + [1] * (it - 1)


def test_continuation_out_of_budget_returns_the_last_state():
    # level 1 improves once (state 2) and then gets worse until the budget runs out
    def stat(depth, tag):
        if depth == 0:
            return 0.0 if tag >= 1 else 1.0
        return {1: 1.0, 2: 0.5}.get(tag, 0.9)

    fake = _ScriptedSolver(stat)
    it, tag = fake.run(maxiter=10)
    assert it == 10 and len(fake.steps) == 10
    assert tag == 10  # the state the run stopped on, not the level's best
