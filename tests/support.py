"""Shared helpers: independent brute-force oracles and instance factories."""

import itertools

import numpy as np

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


def paper_pair(problem):
    """The paper's pair D = [-C I], w = C b(1:n) - b(n+1:m), with C = A2 A1^-1.

    A reference form of the reduction: ``reduce_problem`` builds D = Q2^T,
    with the same null space range(A) and orthonormal rows, so the public
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


def bench_problem(m, n, sparsity, seed):
    """The benchmark's instance: ``bench.gen_instance`` plus sparse noise of variance 0.25."""
    problem, _ = bench.gen_instance(m, n, seed)
    return MlmProblem(problem.A, bench.add_sparse_noise(problem.b, sparsity, 0.25, seed))


def vertex_certificate(A, b, x):
    """||A_Z^-T A_S^T sign(r_S)||_inf at x, with Z the n rows of smallest |r|.

    Computed from x alone, without the solver's rows or factors; a value
    at most 1 proves x optimal.
    """
    r = A @ x - b
    order = np.argsort(np.abs(r), kind="stable")
    Z, S = order[: A.shape[1]], order[A.shape[1]:]
    return float(np.max(np.abs(np.linalg.solve(A[Z].T, A[S].T @ np.sign(r[S])))))
