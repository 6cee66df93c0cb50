"""Shared helpers: independent brute-force oracles, instance factories and a line trace."""

import inspect
import itertools
import sys

import numpy as np
import pytest

from l1fit import MlmProblem, bench
from l1fit.linalg import default_rank_tol


def bp_enumerate(D, w, singular_tol=1e-10):
    """Exact min ||r||_1 s.t. D r = w by enumerating basic solutions.

    Independent of the solvers under test: every subset of k = rows(D)
    columns with a nonsingular square block yields one candidate vertex.
    Only valid for small systems.
    """
    D = np.asarray(D, dtype=float)
    w = np.asarray(w, dtype=float)
    k, m = D.shape
    best = None
    best_cost = np.inf
    for cols in itertools.combinations(range(m), k):
        sub = D[:, cols]
        if abs(np.linalg.det(sub)) <= singular_tol:
            continue
        r = np.zeros(m)
        r[list(cols)] = np.linalg.solve(sub, w)
        cost = float(np.sum(np.abs(r)))
        if cost < best_cost:
            best_cost = cost
            best = r
    assert best is not None, "every candidate basis was singular"
    return best, best_cost


def oracle_loop(problem):
    """``oracle_solve`` as one Python pass per n-row subset: the reference for the stacked form.

    Skips a subset whose |det| is at most 1e-12 times its Hadamard bound;
    returns (x, cost, number of subsets evaluated), ties keeping the first
    subset in lexicographic order.
    """
    A, b = problem.A, problem.b
    best_x, best_cost, evaluated = None, np.inf, 0
    for subset in itertools.combinations(range(problem.m), problem.n):
        sub = A[list(subset)]
        if abs(np.linalg.det(sub)) <= 1e-12 * np.prod(np.linalg.norm(sub, axis=1)):
            continue
        evaluated += 1
        x = np.linalg.solve(sub, b[list(subset)])
        cost = float(np.sum(np.abs(A @ x - b)))
        if cost < best_cost:
            best_x, best_cost = x, cost
    return best_x, best_cost, evaluated


def paper_pair(problem):
    """The paper's pair D = [-C I], w = C b(1:n) - b(n+1:m), with C = A2 A1^-1.

    A reference form of the reduction: ``ReducedSystem.D`` is Q2^T, with
    the same null space range(A) and orthonormal rows, so the public
    residual solvers are fed this pair to keep testing one whose rows are
    not orthonormal.  None when the top block A1 has a singular value at
    most ``default_rank_tol(A)``, where [-C I] loses range(A).
    """
    A, b, n = problem.A, problem.b, problem.n
    if np.linalg.svd(A[:n], compute_uv=False)[-1] <= default_rank_tol(A):
        return None
    C = np.linalg.solve(A[:n].T, A[n:].T).T
    return np.hstack([-C, np.eye(problem.m - n)]), C @ b[:n] - b[n:]


def random_problem(rng, m, n):
    """Gaussian instance with a generic (inconsistent) right-hand side."""
    return MlmProblem(rng.standard_normal((m, n)), rng.standard_normal(m))


def dependent_top_rows_problem():
    """40 x 4 instance whose rows 1..3 are multiples of row 0, so the top block has rank 1."""
    rng = np.random.default_rng(5)
    A = rng.standard_normal((40, 4))
    A[1:4] = A[0] * [[2.0], [-1.0], [3.0]]
    b = A @ rng.standard_normal(4)
    b[rng.choice(40, 10, replace=False)] += rng.standard_normal(10)
    return MlmProblem(A, b)


def near_rank_deficient_problem(seed, m, n, c):
    """U diag(1, ..., 1, c tol) V^T with tol = default_rank_tol of U V^T, and a normal b.

    U (m x n) and V (n x n) have orthonormal columns from the QR of normal
    draws.  At c well below 1 the last direction is rounding-level.
    """
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((m, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    b = rng.standard_normal(m)
    s = np.ones(n)
    s[-1] = c * default_rank_tol(U @ V.T)
    return MlmProblem(U @ np.diag(s) @ V.T, b)


def kahan(n, theta=1.2):
    """Kahan's upper-triangular matrix: no small diagonal entry, sigma_min tiny for large n."""
    sin, cos = np.sin(theta), np.cos(theta)
    return sin ** np.arange(n)[:, None] * (np.eye(n) + np.triu(-cos * np.ones((n, n)), 1))


def bench_problem(m, n, sparsity, seed):
    """The benchmark's instance: ``bench.gen_instance`` plus sparse noise of variance 0.25."""
    problem, _ = bench.gen_instance(m, n, seed)
    return MlmProblem(problem.A, bench.add_sparse_noise(problem.b, sparsity, 0.25, seed))


def tall_problem():
    """The first right-hand side of the tall benchmark's 512 x 128 matrix at seed 1."""
    problem, _ = bench.gen_instance(512, 128, 100000)
    return MlmProblem(problem.A, bench.add_sparse_noise(problem.b, 0.25, 0.25, 100001))


def vertex_certificate(A, b, x):
    """||A_Z^-T A_S^T sign(r_S)||_inf at x, with Z the n rows of smallest |r|.

    Computed from x alone, without the solver's rows or factors; a value
    at most 1 proves x optimal.
    """
    r = A @ x - b
    order = np.argsort(np.abs(r), kind="stable")
    Z, S = order[: A.shape[1]], order[A.shape[1]:]
    return float(np.max(np.abs(np.linalg.solve(A[Z].T, A[S].T @ np.sign(r[S])))))


def highs_cost(A, b):
    """min ||A x - b||_1 by HiGHS (dual simplex) on the direct LP with free x.

    The feasibility tolerances are tightened from HiGHS's default 1e-7,
    which let it report 5.8e-7 for a certified optimum of 3.0e-8.
    """
    scipy_linprog = pytest.importorskip("scipy.optimize").linprog
    m, n = A.shape
    ref = scipy_linprog(np.concatenate([np.zeros(n), np.ones(2 * m)]),
                        A_eq=np.hstack([A, -np.eye(m), np.eye(m)]), b_eq=b,
                        bounds=[(None, None)] * n + [(0, None)] * (2 * m), method="highs-ds",
                        options={"primal_feasibility_tolerance": 1e-10,
                                 "dual_feasibility_tolerance": 1e-10})
    assert ref.status == 0
    return float(np.sum(np.abs(A @ ref.x[:n] - b)))


def highs_tied_bound(A, b, x, tie_tol):
    """min ||u_T||_inf subject to A_T^T u_T = -A_S^T sign(r_S) at x, by HiGHS.

    T is the rows with |r_i| <= ``tie_tol`` (1 + ||b||_inf) for r = A x - b
    and S the others: the vertex x passes the tied-row test exactly when the
    bound is at most 1.  Tolerances are tightened as in ``highs_cost``.
    """
    scipy_linprog = pytest.importorskip("scipy.optimize").linprog
    r = A @ x - b
    tied = np.abs(r) <= tie_tol * (1.0 + np.max(np.abs(b)))
    A_T, c = A[tied], -(np.sign(r[~tied]) @ A[~tied])
    t, n = A_T.shape
    eye, ones = np.eye(t), np.ones((t, 1))
    # variables (u_T, s): min s subject to -s <= u_i <= s and A_T^T u_T = c
    ref = scipy_linprog(np.concatenate([np.zeros(t), [1.0]]),
                        A_ub=np.block([[eye, -ones], [-eye, -ones]]), b_ub=np.zeros(2 * t),
                        A_eq=np.hstack([A_T.T, np.zeros((n, 1))]), b_eq=c,
                        bounds=[(None, None)] * t + [(0, None)], method="highs-ds",
                        options={"primal_feasibility_tolerance": 1e-10,
                                 "dual_feasibility_tolerance": 1e-10})
    assert ref.status == 0
    return float(ref.fun)


def quickstart_problem():
    """``demos/quickstart.py``'s 40 x 5 instance: exact data with three gross outliers."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((40, 5))
    b = A @ rng.standard_normal(5)
    b[[3, 17, 28]] += np.array([8.0, -6.0, 11.0])
    return MlmProblem(A, b)


def lines_run(func, call):
    """The source lines of ``func``, stripped, that ``call()`` executes (a line trace).

    Shows that a test reaches the branch it is written for, wherever the
    branch sits in the file.
    """
    source, first = inspect.getsourcelines(func)
    code, ran = func.__code__, set()

    def local(frame, event, arg):
        if event == "line":
            ran.add(source[frame.f_lineno - first].strip())
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        call()
    finally:
        sys.settrace(None)
    return ran
