import dataclasses
import itertools
import sys
import warnings

import numpy as np
import pytest

from l1fit import (
    MlmProblem,
    ReducedSystem,
    add_sparse_noise,
    fit_linprog,
    gen_instance,
    recover,
    reduce_problem,
    residual_solvers,
)
from l1fit.linalg import norm1, norm2, norm_inf, soft
from l1fit.simplex import _l1_vertex, _start_rows, l1_vertex
from l1fit.residual_solvers import (
    _TRY_EVERY,
    RESIDUAL_METHODS,
    SolverParams,
    _adm,
    _gpsr,
    _homotopy,
    _ist,
    _kernel_pair,
    _lambda_levels,
    _newton_direction,
    _pob,
    _run,
    _smallest_rows,
    _tnipm,
    _tries_at,
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
    lines_run,
    paper_pair,
    quickstart_problem,
    random_problem,
    tall_problem,
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
    res = residual_linprog(rs.D, -(rs.D @ prob.b))
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


NAMED_INSTANCES = {
    "quickstart": quickstart_problem,
    "s400201": lambda: bench_problem(256, 128, 0.25, 400201),
    "s100001": lambda: bench_problem(256, 128, 0.25, 100001),
    "tall512": tall_problem,
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


@pytest.mark.parametrize("method", ["tnipm", "homotopy", "adm", "pob"])
def test_tall_crossover_certifies_its_tied_start(monkeypatch, method):
    # the tall optimum vanishes on about 384 of the 512 rows; the vertex
    # through the rows these iterates name is already optimal, and the
    # tied-row test proves it where the simplex walked 300-600 steps
    calls = _counting_simplex(monkeypatch)
    report = fit_via_residual(tall_problem(), method)
    assert [(vertex.steps, vertex.certified) for vertex in calls] == [(0, True)]
    assert report.converged


@pytest.mark.parametrize("method", ["gpsr", "ist", "adm", "pob"])
def test_small_instance_crosses_over_at_the_second_iteration(method):
    # an 8 x 4 small-batch instance whose first two iterates name the same
    # rows: the first tries after iterations 1 and 2 end the run, where
    # tries every 10 iterations took at least 20
    problem = bench_problem(8, 4, 0.25, 100002)
    report = fit_via_residual(problem, method)
    assert report.converged and report.iterations <= 2
    assert report.cost == pytest.approx(fit_via_residual(problem, "linprog").cost, rel=1e-9)


@pytest.mark.parametrize("method", ["adm", "pob"])
def test_dual_methods_try_after_every_iteration(monkeypatch, method):
    # the dual iterates settle slowly: rows ten iterations apart keep
    # differing long after consecutive iterates agree, so every iterate
    # names its rows
    tries = []

    def counting(r, k):
        tries.append(r)
        return _smallest_rows(r, k)

    monkeypatch.setattr(residual_solvers, "_smallest_rows", counting)
    report = fit_via_residual(bench_problem(8, 4, 0.25, 100001), method)
    assert report.converged
    assert len(tries) == report.iterations


@pytest.mark.parametrize("method", ["adm", "pob"])
def test_dual_methods_cross_over_once_consecutive_iterates_agree(method):
    # with tries after iterations 1, 2, 4 and 8, then every 10, L1-ADM took
    # 650 iterations here and L1-POB 600
    problem = bench_problem(256, 128, 0.25, 100001)
    report = fit_via_residual(problem, method)
    assert report.converged and report.iterations <= 150
    assert report.cost == pytest.approx(fit_linprog(problem).cost, rel=1e-9)


@pytest.mark.parametrize("method", TRYING)
def test_tries_name_rows_from_points_on_the_constraints(monkeypatch, method):
    # each try hands the crossover its iterate already restored onto
    # r0 + range(N); L1-ADM and L1-POB restore from the P r they carry
    N, r0 = _reduced_pair(bench_problem(64, 16, 0.25, 100001))
    violations = []

    def checking(r_f, k):
        violations.append(norm2(r_f - N @ (N.T @ r_f) - r0))
        return _smallest_rows(r_f, k)

    monkeypatch.setattr(residual_solvers, "_smallest_rows", checking)
    assert RESIDUAL_METHODS[method](N, r0).converged
    assert violations and max(violations) <= 1e-12 * norm2(r0)


@pytest.mark.parametrize("sparsity,seed", [(0.25, 100001), (0.75, 700202)])
def test_linprog_starts_at_the_least_squares_rows(sparsity, seed):
    # the rows of smallest |r0| are most of an optimal basis: from them the
    # walk reaches the optimum in fewer basis changes than from the first
    # independent rows
    problem = bench_problem(256, 128, sparsity, seed)
    rs = reduce_problem(problem)
    r0 = rs.Q @ (rs.Q.T @ problem.b) - problem.b
    cold = l1_vertex(rs.Q, -r0, rows=_start_rows(rs.Q))
    report = fit_via_residual(problem, "linprog")
    assert report.converged and cold.certified
    assert report.iterations < cold.steps
    assert report.cost == pytest.approx(norm1(rs.Q @ cold.x + r0), rel=1e-12)
    assert report.cost == pytest.approx(fit_linprog(problem).cost, rel=1e-12)


def _counting_simplex(monkeypatch, certified=None):
    """Record the residual solvers' vertex simplex calls; a given ``certified`` overrides the verdict."""
    calls = []

    def counted(*args, **kwargs):
        vertex = _l1_vertex(*args, **kwargs)
        calls.append(vertex)
        if certified is None:
            return vertex
        return dataclasses.replace(vertex, certified=certified)

    monkeypatch.setattr(residual_solvers, "_l1_vertex", counted)
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


@pytest.mark.parametrize("seed", range(1, 9))
def test_pob_crosses_over_on_the_unscaled_pair(seed):
    # one row of a consistent system is off by 3e-8; L1-POB rescales r0 by
    # about 1.7e10, which lifts the rounding noise of the tied rows above
    # the simplex's tie tolerance, and crossing over on that pair ended
    # converged=False on seeds 5 and 8.  The optimum is 3e-8, so costs agree
    # to rounding relative to 1 + cost; HiGHS's 1e-7 feasibility tolerance
    # puts its cost 5.8e-7 on seed 3, so L1-LP's certified vertex is the
    # reference
    problem, _ = gen_instance(40, 5, seed)
    b = problem.b.copy()
    b[7] += 3e-8
    problem = MlmProblem(problem.A, b)
    report = fit_via_residual(problem, "pob")
    reference = fit_linprog(problem)
    assert report.converged and reference.converged
    assert report.cost == pytest.approx(reference.cost, rel=1e-9, abs=1e-12)


def test_homotopy_early_return_meets_the_constraint():
    # ||D^T w||_inf <= epsilon ends the path before its first step; the
    # answer was r = 0 with converged=True, off D r = w by all of ||w||
    D = np.array([[1.0, 0.5]])
    w = np.array([1e-9])
    res = residual_homotopy(D, w)
    assert res.converged
    assert norm2(D @ res.r - w) <= 1e-12 * norm2(w)


def _restored(N, r0, r):
    """r restored onto the constraint set r0 + range(N): r0 + N (N^T r)."""
    return r0 + N @ (N.T @ r)


def _off_constraints(N, r0, r):
    """||P r - r0||, the distance of r from r0 + range(N) when N^T r0 = 0."""
    return norm2(r - N @ (N.T @ r) - r0)


def _reduced_pair(problem):
    """The kernel pair (N, r0) that ``fit_via_residual`` hands the cores."""
    rs = reduce_problem(problem)
    return rs.Q, rs.Q @ (rs.Q.T @ problem.b) - problem.b


def _paper_orthonormal_pair(problem):
    """The kernel pair (N, r0) of the paper's D, N with orthonormal columns."""
    return _kernel_pair(*paper_pair(problem))


@pytest.mark.parametrize("pair", [_reduced_pair, _paper_orthonormal_pair])
def test_newton_direction_solves_the_assembled_hessian(pair):
    # the Woodbury step against a dense solve of
    # [[P + diag(b1), diag(b2)], [diag(b2), diag(b1)]] d = -grad, with
    # P = I - N N^T (D^T D on an orthonormal-row pair), at a
    # strictly interior (r, u) shaped like a late iterate: 12 rows near
    # r = 0 (more than n, so the kernel keeps its curvature and the dense
    # solve its accuracy) and the rest close to their bound u = |r|
    rng = np.random.default_rng(47)
    N, _ = pair(random_problem(rng, 40, 8))
    m = N.shape[0]
    r = rng.standard_normal(m)
    r[:12] *= 1e-4
    u = np.abs(r) + 10.0 ** rng.uniform(-4.0, -2.0, m)
    u[:12] = np.abs(r[:12]) + 1e-3
    t = 1e6
    q1, q2 = 1.0 / (u + r), 1.0 / (u - r)
    grad = rng.standard_normal(2 * m)
    b1 = (q1 * q1 + q2 * q2) / t
    b2 = (q1 * q1 - q2 * q2) / t
    H = np.block([[np.eye(m) - N @ N.T + np.diag(b1), np.diag(b2)], [np.diag(b2), np.diag(b1)]])
    direct = np.linalg.solve(H, -grad)
    step = _newton_direction(N, grad, q1, q2, t)
    assert norm2(step - direct) <= 1e-10 * norm2(direct)


def test_vertex_rows_restore_feasibility_and_sort():
    # the kernel of D = [[1, 0, 0]] is spanned by e_1 and e_2, so k = 2 rows
    # are named; restoring D r = 1 sets r_0 = 1 before the rows are ranked
    pair = _kernel_pair([[1.0, 0.0, 0.0]], [1.0])

    def vertex_rows(r):
        return list(_smallest_rows(_restored(*pair, np.array(r)), 2))

    assert vertex_rows([1.0, 0.5, 3.0]) == [0, 1]
    assert vertex_rows([0.1, 0.5, 0.2]) == [1, 2]
    assert vertex_rows([0.1, 0.2, 0.5]) == [1, 2]


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
    N, r0 = _reduced_pair(problem)
    D = reduce_problem(problem).D
    w = -(D @ problem.b)
    certified = RESIDUAL_METHODS[method](N, r0)
    calls = _counting_simplex(monkeypatch, certified=False)
    res = RESIDUAL_METHODS[method](N, r0)
    assert len(calls) == 1
    assert certified.converged and not res.converged
    assert res.iterations == certified.iterations
    assert norm2(D @ res.r - w) <= 1e-9 * norm2(w)


def test_consistent_system_short_circuits(monkeypatch):
    # w = -D b is rounding noise, so r = 0 is optimal without iterating
    problem, p = gen_instance(256, 128, 100000)
    for method in RESIDUAL_METHODS:
        report = fit_via_residual(problem, method)
        assert report.converged and report.iterations == 0
        assert np.linalg.norm(report.x - p) <= 1e-10 * np.linalg.norm(p)
    # one perturbed entry is past the short circuit: the simplex runs (from
    # the least-squares rows it certifies its start, so with 0 steps)
    b = problem.b.copy()
    b[5] += 1e-6
    calls = _counting_simplex(monkeypatch)
    assert fit_via_residual(MlmProblem(problem.A, b), "linprog").converged
    assert len(calls) >= 1 and all(vertex.certified for vertex in calls)


def _consistent_cases():
    """(problem, whether r0 is zeroed) on each side of the consistency test."""
    rng = np.random.default_rng(0)
    A, p = rng.standard_normal((12, 3)), rng.standard_normal(3)
    B, q = 1e6 * rng.standard_normal((256, 128)), rng.standard_normal(128)
    A_rows = A * 10.0 ** rng.uniform(-8.0, 8.0, (12, 1))
    noisy = A @ p + rng.standard_normal(12)
    return [pytest.param(MlmProblem(1e6 * A, (1e6 * A) @ p), True, id="12x3-scaled"),
            pytest.param(MlmProblem(B, B @ q), True, id="256x128-scaled"),
            pytest.param(MlmProblem(A_rows, A_rows @ p), False, id="12x3-graded-rows"),
            pytest.param(MlmProblem(A, noisy), False, id="12x3-noisy")]


@pytest.mark.parametrize("problem,zeroed", _consistent_cases())
def test_consistency_bound_keeps_the_row_test_decision(monkeypatch, problem, zeroed):
    # the ||r0||_inf bound in front of the row test only skips a test that
    # cannot pass: r0 is zeroed (0 iterations) or kept exactly as without it
    seen = []
    core = RESIDUAL_METHODS["adm"]
    monkeypatch.setitem(RESIDUAL_METHODS, "adm", lambda N, r0, p: seen.append(r0) or core(N, r0, p))
    report = fit_via_residual(problem, "adm")
    assert (not seen[0].any()) == zeroed
    assert (report.iterations == 0) == zeroed and report.converged


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


@pytest.mark.parametrize("solver, s", [
    pytest.param(solver, s, id=solver.__name__ + ("" if s == 1.0 else f"-{s:g}"))
    for s in (1.0, 1e-10, 1e-12) for solver in ALL_SOLVERS
])
def test_solvers_answer_dependent_rows(solver, s):
    # the second row doubles the first: with w = s (1, 2) it repeats the first
    # constraint, whose optimum is r = s (1, 0, 0); with w = s (1, 3) the rows
    # contradict each other, however small s is
    D = np.array([[1.0, 0.5, 0.2], [2.0, 1.0, 0.4]])
    res = solver(D, s * np.array([1.0, 2.0]))
    assert res.converged
    assert np.allclose(res.r, [s, 0.0, 0.0], atol=1e-12 * s)
    with pytest.raises(ValueError, match="range"):
        solver(D, s * np.array([1.0, 3.0]))


@pytest.mark.parametrize("problem", [random_problem(np.random.default_rng(42), 12, 4),
                                     dependent_top_rows_problem()])
def test_orthonormal_pair_keeps_the_constraint_set(problem):
    # the paper's [-C I], and reduce_problem's orthonormal left null basis of
    # A for a singular top block, where [-C I] does not exist: the kernel
    # pair (N, r0) of either, N with orthonormal columns, cuts out the same
    # set r0 + range(N)
    rs = reduce_problem(problem)
    D, w = paper_pair(problem) or (rs.D, -(rs.D @ problem.b))
    N, r0 = _kernel_pair(D, w)
    k, m = D.shape
    scale = np.linalg.norm(D)
    assert N.shape == (m, m - k) and r0.shape == (m,)
    assert np.allclose(N.T @ N, np.eye(m - k), rtol=0.0, atol=1e-12)
    assert np.allclose(D @ N, 0.0, rtol=0.0, atol=1e-12 * scale)
    assert norm2(D @ r0 - w) <= 1e-12 * scale * norm2(r0)
    assert norm2(N.T @ r0) <= 1e-12 * norm2(r0)  # the minimum-norm point
    # every residual A x - b is in r0 + range(N), for the lstsq x and for random x
    rng = np.random.default_rng(43)
    xs = [np.linalg.lstsq(problem.A, problem.b, rcond=None)[0]]
    xs += [rng.standard_normal(problem.n) for _ in range(3)]
    for x in xs:
        d = problem.A @ x - problem.b - r0
        assert norm2(d - N @ (N.T @ d)) <= 1e-12 * (1.0 + norm2(d))


@pytest.mark.parametrize("problem", [random_problem(np.random.default_rng(45), 12, 4),
                                     dependent_top_rows_problem()])
def test_qr_route_matches_the_paper_route(problem):
    # the pipeline solves on the kernel basis Q of the thin factors A = Q R;
    # the paper's D (the [-C I] of a nonsingular top block, the derived
    # Q2^T of a singular one) must cut out the same residuals:
    # null(D) = range(A), and equal optima
    rs = reduce_problem(problem)
    D, w = paper_pair(problem) or (rs.D, -(rs.D @ problem.b))
    m, n = problem.m, problem.n
    Q, R = rs.Q, rs.R
    scale = np.max(np.abs(problem.A))
    assert Q.shape == (m, n) and R.shape == (n, n)
    assert np.allclose(Q.T @ Q, np.eye(n), rtol=0.0, atol=1e-12)
    assert np.allclose(Q @ R, problem.A, rtol=0.0, atol=1e-12 * scale)
    assert np.allclose(rs.D @ problem.A, 0.0, rtol=0.0, atol=1e-12 * scale)
    assert np.allclose(D @ Q, 0.0, rtol=0.0, atol=1e-12 * np.max(np.abs(D)))
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
        fit_via_residual(prob, "linprog", reduced=dataclasses.replace(rs, Q=rs.Q[:, 1:]))
    # the complete Q of A = Q [R; 0] is not the thin factor
    complete = np.linalg.qr(prob.A, mode="complete")[0]
    with pytest.raises(ValueError, match="reduced system"):
        fit_via_residual(prob, "linprog", reduced=dataclasses.replace(rs, Q=complete))


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


@pytest.mark.parametrize("method", RESIDUAL_METHODS)
def test_driver_rejects_a_rescaled_factorization(method):
    # (Q / 2) (2 R) still multiplies out to A, but Q's columns are not
    # orthonormal: every residual method reported converged=True at cost
    # 39.57 on it, the optimum being 6.61
    rng = np.random.default_rng(49)
    A = rng.standard_normal((30, 4))
    b = A @ rng.standard_normal(4)
    b[:6] += rng.standard_normal(6)
    prob = MlmProblem(A, b)
    rs = reduce_problem(prob)
    with pytest.raises(ValueError, match="orthonormal"):
        fit_via_residual(prob, method, reduced=dataclasses.replace(rs, Q=rs.Q / 2, R=2 * rs.R))


@pytest.mark.parametrize("method", RESIDUAL_METHODS)
def test_driver_takes_a_precomputed_reduction_bit_for_bit(method):
    prob = random_problem(np.random.default_rng(48), 12, 4)
    plain = fit_via_residual(prob, method)
    reused = fit_via_residual(prob, method, reduced=reduce_problem(prob))
    assert np.array_equal(reused.x, plain.x)
    assert (reused.iterations, reused.converged) == (plain.iterations, plain.converged)


@pytest.mark.parametrize("method", RESIDUAL_METHODS)
def test_driver_never_reads_the_derived_D(monkeypatch, method):
    # the fit path runs on the thin factors alone; D = Q2^T is built only on request
    def refuse(self):
        raise AssertionError("ReducedSystem.D was read")

    prob = bench_problem(40, 8, 0.25, 100001)
    rs = reduce_problem(prob)
    monkeypatch.setattr(ReducedSystem, "D", property(refuse))
    plain = fit_via_residual(prob, method)
    assert plain.converged
    assert np.array_equal(fit_via_residual(prob, method, reduced=rs).x, plain.x)


@pytest.mark.parametrize("method", RESIDUAL_METHODS)
def test_driver_takes_a_reduction_with_a_stale_w(method):
    # the tall benchmark workload's call: one reduction of A, its w replaced
    # per right-hand side through the derived D, gives the unreduced fit
    matrix, _ = gen_instance(60, 12, 100000)
    rs = reduce_problem(matrix)
    for seed in (1, 2):
        p = MlmProblem(matrix.A, add_sparse_noise(matrix.b, 0.25, 0.25, seed))
        plain = fit_via_residual(p, method)
        reused = fit_via_residual(p, method, reduced=dataclasses.replace(rs, w=-(rs.D @ p.b)))
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


def test_homotopy_support_bounded_along_path(monkeypatch):
    rng = np.random.default_rng(35)
    step = residual_solvers._homotopy_step
    sizes = []

    def recording_step(support, *args):
        sizes.append(int(support.size))
        return step(support, *args)

    monkeypatch.setattr(residual_solvers, "_homotopy_step", recording_step)
    for _ in range(5):
        D, w = paper_pair(random_problem(rng, 12, 4))
        sizes.clear()
        residual_homotopy(D, w)
        assert sizes, "path never iterated"
        assert max(sizes) <= D.shape[0]


def test_homotopy_step_tie_order():
    step = residual_solvers._homotopy_step
    # support {0}; both add candidates and the drop candidate reach 0.5
    support, v, pvec, dk = np.array([0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, -0.5, 0.5]), np.zeros(3)
    assert step(support, np.array([-0.5, 0.0, 0.0]), v, pvec, dk, 1.0, 3) == (0.5, -1, 0, True)
    # without the drop, the (level - pvec) side wins over a lower index on the (level + pvec) side
    assert step(support, np.array([-2.0, 0.0, 0.0]), v, pvec, dk, 1.0, 3) == (0.5, 2, -1, False)
    # no positive candidate: no step changes the support
    assert step(support, np.array([0.5, 0.0, 0.0]), v, np.zeros(3), dk, 0.0, 3)[:3] == (np.inf, -1, -1)


def test_homotopy_ties_at_the_first_breakpoint_reach_the_optimum():
    # duplicated columns tie at the first breakpoint; on a row-orthonormal
    # pair whose equal columns stayed bitwise equal, the support Gram
    # matrix turned singular and the path raised
    D = np.array([[1.0, 1.0, 0.2]])
    res = residual_homotopy(D, np.array([1.0]))
    assert res.converged
    assert res.objective == pytest.approx(1.0, rel=1e-12)
    assert norm2(D @ res.r - 1.0) <= 1e-12


def test_homotopy_rank_one_updates_match_refactoring(monkeypatch):
    # 158 breakpoints, so the default run crosses three refactors of G^-1;
    # refactoring at every breakpoint must walk the same path.  The s x s
    # support system (np.linalg.solve on a Gram rebuilt by np.block) must
    # not come back inside the path
    N, r0 = _reduced_pair(bench_problem(256, 128, 0.25, 100001))
    path = residual_solvers._homotopy

    def forbidden(real):
        def call(*args, **kwargs):
            assert sys._getframe(1).f_code is not path.__code__, real.__name__
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "solve", forbidden(np.linalg.solve))
    monkeypatch.setattr(np, "block", forbidden(np.block))
    default = RESIDUAL_METHODS["homotopy"](N, r0)
    monkeypatch.setattr(residual_solvers, "_HP_REFACTOR_EVERY", 1)
    refactored = RESIDUAL_METHODS["homotopy"](N, r0)
    assert default.iterations == refactored.iterations == 158
    assert default.converged and refactored.converged
    assert norm2(default.r - refactored.r) <= 1e-12 * norm2(refactored.r)


@pytest.mark.parametrize("m,n,seed", [(12, 3, 5), (40, 8, 17), (40, 8, 18),
                                      (64, 16, 10), (64, 16, 17), (64, 16, 19)])
def test_homotopy_ends_its_path_where_the_support_outgrows_rank_d(m, n, seed):
    # at scale 1e8 the path runs down to 1e-16 of its start and an entering
    # row would leave G = I - N_S^T N_S singular; the dense s x s solve
    # raised "degenerate support system" here.  The path now ends at that
    # breakpoint and the crossover certifies from it
    problem = bench_problem(m, n, 0.25, seed)
    problem = MlmProblem(1e8 * problem.A, 1e8 * problem.b)
    report = fit_via_residual(problem, "homotopy")
    reference = fit_linprog(problem)
    assert report.converged and reference.converged
    assert report.cost == pytest.approx(reference.cost, rel=1e-11)


def test_adm_does_not_depend_on_the_basis_of_the_rows():
    # (M D, M w) cuts out the same set as (D, w); the default penalty was
    # mean|w_i| on the orthonormalized rows, which M rotates, and the two
    # runs took 30 and 10 iterations
    D, w = paper_pair(bench_problem(30, 6, 0.25, 50))
    M = np.random.default_rng(50).standard_normal((24, 24))
    base = residual_adm(D, w)
    mixed = residual_adm(M @ D, M @ w)
    assert base.converged and mixed.converged
    assert mixed.iterations == base.iterations
    assert norm2(mixed.r - base.r) <= 1e-9 * norm2(base.r)


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
    for lam in (-1.0, 0.0, np.nan):
        with pytest.raises(ValueError, match="lam must be positive"):
            SolverParams(lam=lam)
    # an infinite tolerance or penalty ran 0 iterations, an infinite mu
    # iterated on NaN, and a fractional or infinite budget was taken
    for name in ("epsilon", "lam", "tau", "mu"):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            SolverParams(**{name: np.inf})
    for maxiter in (2.5, np.inf, 3.0):
        with pytest.raises(ValueError, match="maxiter must be an integer"):
            SolverParams(maxiter=maxiter)
    assert SolverParams(maxiter=np.int64(2)).maxiter == 2


@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_solvers_reject_mismatched_constraint_shapes(solver):
    with pytest.raises(ValueError, match="constraint shapes do not match"):
        solver(np.array([[1.0, 0.5, 0.0]]), np.array([1.0, 2.0]))


@pytest.mark.parametrize("where,value", [("D", np.nan), ("w", np.inf), ("w", np.nan)])
@pytest.mark.parametrize("solver", ALL_SOLVERS)
def test_solvers_reject_non_finite_constraints(solver, where, value):
    # a NaN in D stopped the SVD ("did not converge"); an inf in w warned in
    # the kernel pair's products, ran the core, and failed only in the
    # simplex, with a message naming the simplex's arguments
    pair = {"D": np.array([[1.0, 0.5, -0.3], [0.2, -1.0, 0.8]]), "w": np.array([1.0, -2.0])}
    pair[where][-1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="D and w must be finite"):
            solver(pair["D"], pair["w"])


@pytest.mark.parametrize("m,n,seed", [(256, 128, 100001), (8, 4, 100002)])
@pytest.mark.parametrize("method", ITERATIVE_METHODS)
def test_budget_of_one_iteration_ends_every_core_in_one_crossover(monkeypatch, method, m, n, seed):
    # the budget is counted by the one loop that runs every core: a single
    # iteration, then the crossover from that iterate, which certifies
    problem = bench_problem(m, n, 0.25, seed)
    reference = fit_linprog(problem)
    calls = _counting_simplex(monkeypatch)
    report = fit_via_residual(problem, method, SolverParams(maxiter=1))
    assert report.iterations == 1 and len(calls) == 1
    assert report.converged
    assert report.cost == pytest.approx(reference.cost, rel=1e-9)


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


def _small_pair():
    """A pinned 8 x 3 kernel pair (N, r0): a try names k = 3 rows."""
    return _reduced_pair(bench_problem(8, 3, 0.25, 100001))


def _scripted(points):
    """A core for ``_run`` that yields ``points`` in turn; ``asked`` counts the ones taken."""
    asked = []

    def core(N, r0, p):
        for point in points:
            asked.append(point)
            yield point

    return core, asked


def _spying_simplex(monkeypatch, certified=None):
    """Record the start rows of the residual solvers' vertex simplex calls.

    A given ``certified`` overrides the verdict.
    """
    starts = []

    def spied(A, b, rows):
        starts.append(rows.copy())  # the descent edits rows
        vertex = _l1_vertex(A, b, rows)
        return vertex if certified is None else dataclasses.replace(vertex, certified=certified)

    monkeypatch.setattr(residual_solvers, "_l1_vertex", spied)
    return starts


def test_run_ends_at_a_repeated_try_and_crosses_over_from_its_rows(monkeypatch):
    N, r0 = _small_pair()
    k = N.shape[1]
    rng = np.random.default_rng(1)
    c, a, b = (_restored(N, r0, r) for r in rng.standard_normal((7, N.shape[0]))[[1, 5, 6]])
    assert not (_smallest_rows(a, k) == _smallest_rows(b, k)).all()
    # tries b, a, a: the second a repeats the rows of the try before it; the
    # untried c between them names no rows
    core, asked = _scripted([(b, True), (c, False), (a, True), (a, True), (b, True)])
    starts = _spying_simplex(monkeypatch)
    res = _run(N, r0, core=core)
    assert res.iterations == 4 and len(asked) == 4
    assert len(starts) == 1 and (starts[0] == _smallest_rows(a, k)).all()
    assert res.converged
    assert res.objective == pytest.approx(residual_solvers._linprog(N, r0).objective, rel=1e-12)


def test_run_out_of_budget_ends_at_the_last_yielded_point(monkeypatch):
    N, r0 = _small_pair()
    rng = np.random.default_rng(2)
    points = [(_restored(N, r0, r), False) for r in rng.standard_normal((5, N.shape[0]))]
    core, asked = _scripted(points)
    starts = _spying_simplex(monkeypatch, certified=False)
    res = _run(N, r0, SolverParams(maxiter=3), core=core)
    end = points[2][0]
    assert res.iterations == 3 and len(asked) == 3
    assert len(starts) == 1 and (starts[0] == _smallest_rows(end, N.shape[1])).all()
    assert not res.converged
    assert np.array_equal(res.r, end)


def test_run_of_a_core_that_returns_at_once_crosses_over_from_zero(monkeypatch):
    N, r0 = _small_pair()
    core, asked = _scripted([])
    starts = _spying_simplex(monkeypatch)
    res = _run(N, r0, core=core)
    assert res.iterations == 0 and not asked
    # r = 0 restored is r0, so the crossover starts at r0's smallest rows
    assert len(starts) == 1 and (starts[0] == _smallest_rows(r0, N.shape[1])).all()
    assert res.converged
    assert res.objective == pytest.approx(residual_solvers._linprog(N, r0).objective, rel=1e-12)


@pytest.mark.parametrize("core", [_gpsr, _ist])
def test_continuation_cores_try_on_schedule_under_the_callers_errstate(core):
    # the tries come exactly at the _tries_at iterations, each on
    # r0 + range(N), and no step's error state leaks out across a yield
    N, r0 = _reduced_pair(bench_problem(64, 16, 0.25, 100001))
    it = 0
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        caller = np.geterr()
        for r_f, tries in itertools.islice(core(N, r0, SolverParams()), 300):
            it += 1
            assert np.geterr() == caller
            assert tries == _tries_at(it)
            if tries:
                assert _off_constraints(N, r0, r_f) <= 1e-12 * norm2(r0)
    assert it > 3 * _TRY_EVERY


def test_tries_start_early_then_keep_the_cadence():
    assert [i for i in range(1, 3 * _TRY_EVERY + 1) if _tries_at(i)] == [
        1, 2, 4, 8, _TRY_EVERY, 2 * _TRY_EVERY, 3 * _TRY_EVERY]


CORES = {"gpsr": _gpsr, "tnipm": _tnipm, "homotopy": _homotopy, "ist": _ist, "adm": _adm,
         "pob": _pob}


@pytest.mark.parametrize("method", ITERATIVE_METHODS)
def test_cores_yield_each_point_once_and_return_at_their_stop_rule(method):
    # run without _run, every core ends by its own stop rule; its last yield
    # is a point it moved to, not the one before repeated, and the cores
    # that try after every iteration carry a try on that last point too
    N, r0 = _small_pair()
    points = list(CORES[method](N, r0, SolverParams()))
    assert len(points) >= 2
    assert not np.array_equal(points[-1][0], points[-2][0])
    tries = [tries for _, tries in points]
    if method in ("tnipm", "adm", "pob"):
        assert all(tries)
    elif method == "homotopy":
        assert not any(tries)
    else:
        assert tries == [_tries_at(it) for it in range(1, len(points) + 1)]


YIELD_PAIRS = {
    "reduced-64x16": lambda: _reduced_pair(bench_problem(64, 16, 0.25, 100001)),
    "reduced-256x128": lambda: _reduced_pair(bench_problem(256, 128, 0.25, 100001)),
    "paper-40x8": lambda: _paper_orthonormal_pair(bench_problem(40, 8, 0.25, 100001)),
}


@pytest.mark.parametrize("pair", YIELD_PAIRS)
@pytest.mark.parametrize("method", ITERATIVE_METHODS)
def test_every_yield_lies_on_the_constraints(method, pair):
    # every core yields the point it moves to restored onto r0 + range(N)
    # from the P r - r0 it carries, tried or not, so _run names rows and
    # answers from it without a product by N; up to 2000 iterations, where
    # the carried P r has longest to drift
    N, r0 = YIELD_PAIRS[pair]()
    points = list(itertools.islice(CORES[method](N, r0, SolverParams()), 2000))
    assert points
    for r_f, _ in points:
        assert _off_constraints(N, r0, r_f) <= 1e-12 * norm2(r0)


@pytest.mark.parametrize("m,n,seed,scale,exit_line", [
    (8, 3, 100001, 1.0, "yield r - pvec + (pmax - lam) * Ny, False"),
    (12, 3, 5, 1e8, "yield r - pvec, False  # r vanishes off S: a vertex, where the path ends"),
])
def test_homotopy_yields_the_point_it_moves_to_at_either_exit(monkeypatch, m, n, seed, scale,
                                                              exit_line):
    # one yield per step: the path's end and the singular-G vertex are the
    # points the last step moved to; a bare return there would drop them
    problem = bench_problem(m, n, 0.25, seed)
    N, r0 = _reduced_pair(MlmProblem(problem.A, scale * problem.b))
    steps, step = [], residual_solvers._homotopy_step

    def counting(*args):
        steps.append([np.copy(arg) for arg in args])
        return step(*args)

    monkeypatch.setattr(residual_solvers, "_homotopy_step", counting)
    points = []
    ran = lines_run(_homotopy, lambda: points.extend(_homotopy(N, r0, SolverParams())))
    assert exit_line in ran
    assert len(points) == len(steps) >= 2
    assert not np.array_equal(points[-1][0], points[-2][0])
    if scale == 1.0:  # the path ends at the terminal level: |P r - r0| <= epsilon
        # the last step leaves r_k along v from its level down to epsilon;
        # the core yields that end point restored onto the constraints
        _, r_k, v, _, _, level, _ = steps[-1]
        eps = SolverParams().epsilon
        end = r_k + (level - eps) * v
        assert norm_inf(end - N @ (N.T @ end) - r0) == pytest.approx(eps, rel=1e-6)
        assert norm2(points[-1][0] - _restored(N, r0, end)) <= 1e-12 * norm2(r0)


def test_lines_run_puts_back_the_outer_tracer():
    # a line trace ended with sys.settrace(None), which switched off an
    # outer tracer, coverage's or a debugger's, for the rest of the session
    seen = []

    def outer(frame, event, arg):
        if frame.f_code is _tries_at.__code__:
            seen.append(event)

    before = sys.gettrace()
    sys.settrace(outer)
    try:
        ran = lines_run(_tries_at, lambda: _tries_at(3))
        restored = sys.gettrace()
        _tries_at(5)
    finally:
        sys.settrace(before)
    assert ran == {"return it in (1, 2, 4, 8) or it % _TRY_EVERY == 0"}
    assert restored is outer
    assert seen == ["call"]  # the call after the trace, none during it


def _scaled_problems(scale):
    """``_small_pair``'s problem and its copy with A and b scaled by ``scale``: the same x."""
    problem = bench_problem(8, 3, 0.25, 100001)
    return problem, MlmProblem(scale * problem.A, scale * problem.b)


def test_gpsr_rejects_a_step_whose_curvature_overflows():
    # at |r0| near 1e155, ||P d||^2 overflows: the line search takes no step,
    # the iterate stays at 0, and the crossover from there certifies
    problem, scaled = _scaled_problems(1e155)
    N, r0 = _reduced_pair(scaled)
    points = []
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        ran = lines_run(_gpsr, lambda: points.extend(
            itertools.islice(_gpsr(N, r0, SolverParams()), 3)))
    assert "beta = 0.0" in ran
    assert all(np.array_equal(r_f, r0) for r_f, _ in points)  # r = 0 restored
    report = fit_via_residual(scaled, "gpsr")
    assert report.converged
    assert np.allclose(report.x, fit_via_residual(problem, "gpsr").x, rtol=1e-12, atol=0.0)


def test_gpsr_takes_a_whole_step_when_its_curvature_underflows():
    # at |r0| near 1e-200, with lam scaled alike, ||P d||^2 underflows to 0:
    # the step is taken whole, to the soft-threshold of r0 at the first
    # level (yielded restored onto the constraints), and the next step
    # length is the largest
    N, r0 = _reduced_pair(_scaled_problems(1e-200)[1])
    p = SolverParams(lam=1e-210)
    points = []
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        ran = lines_run(_gpsr, lambda: points.extend(itertools.islice(_gpsr(N, r0, p), 2)))
    assert {"beta = 1.0", "alpha = _ALPHA_MAX"} <= ran
    whole = _restored(N, r0, soft(r0, _lambda_levels(r0, p.lam)[0]))
    assert np.allclose(points[0][0], whole, rtol=1e-14, atol=0.0)


def test_tnipm_ends_where_backtracking_finds_no_step():
    # at scale 1e100 no step of the barrier method stays inside u > |r|
    # within 100 halvings; the stop itself is no iteration, and the
    # crossover from r = 0 certifies
    problem, scaled = _scaled_problems(1e100)
    report = []
    ran = lines_run(_tnipm, lambda: report.append(fit_via_residual(scaled, "tnipm")))
    assert "return  # backtracking found no acceptable step" in ran
    assert report[0].iterations == 0 and report[0].converged
    assert np.allclose(report[0].x, fit_via_residual(problem, "tnipm").x, rtol=1e-12, atol=0.0)


def test_tnipm_ends_where_the_accepted_step_moves_nothing(monkeypatch):
    # a zero Newton direction passes the line search at once and moves
    # nothing: the core returns before its first yield
    N, r0 = _small_pair()
    monkeypatch.setattr(residual_solvers, "_newton_direction",
                        lambda N, grad, q1, q2, t: np.zeros_like(grad))
    points = []
    ran = lines_run(_tnipm, lambda: points.extend(_tnipm(N, r0, SolverParams())))
    assert "return  # accepted step moves nothing; numerical floor reached" in ran
    assert points == []
    res = _run(N, r0, core=_tnipm)
    assert res.iterations == 0 and res.converged
    assert res.objective == pytest.approx(residual_solvers._linprog(N, r0).objective, rel=1e-12)


def test_pob_empties_its_multiplier_inside_the_epsilon_ball():
    # with epsilon on the scale of the working norm (500) the shrunk
    # multiplier is 0; the crossover still certifies the optimum
    problem = bench_problem(12, 3, 0.25, 100001)
    report = []
    ran = lines_run(_pob, lambda: report.append(
        fit_via_residual(problem, "pob", SolverParams(epsilon=300.0))))
    assert "y = np.zeros(m)  # the block shrinkage of a t inside the epsilon-ball" in ran
    assert report[0].converged
    assert report[0].cost == pytest.approx(fit_linprog(problem).cost, rel=1e-9)
