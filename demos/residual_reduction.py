"""The reduction that powers the solver family, step by step.

One thin QR factorization A = Q R (Q of size m x n with orthonormal
columns) is all a fit factors.  Completing Q to an orthonormal basis
[Q Q2] gives the constraint operator D = Q2^T: its rows are orthonormal
(D D^T = I) and annihilate A (D A = 0), so every residual r = A x - b
satisfies D r = w with w = -D b.  Minimizing ||r||_1 under that single
linear constraint and then applying x = R^-1 Q^T (b + r) solves the
fitting problem without ever optimizing over x directly.  The paper
writes the same constraint as D = [-A2 A1^+  I] from the top square
block A1; both have null space range(A).
"""

import numpy as np

import l1fit
from l1fit.residual_solvers import residual_linprog

rng = np.random.default_rng(1)
m, n = 9, 3
problem = l1fit.MlmProblem(rng.standard_normal((m, n)), rng.standard_normal(m))

reduced = l1fit.reduce_problem(problem)
D = reduced.D  # built on request from Q; the fit path never forms it
w = -(D @ problem.b)
print("Q shape:", reduced.Q.shape, " D shape:", D.shape, " w shape:", w.shape)
print("||D D^T - I|| =", np.linalg.norm(D @ D.T - np.eye(m - n)))
print("||D A||       =", np.linalg.norm(D @ problem.A))
print("||D Q||       =", np.linalg.norm(D @ reduced.Q))

# the constraint identity: any parameter vector produces a feasible residual
for _ in range(3):
    x = rng.standard_normal(n)
    r = problem.A @ x - problem.b
    print("||D r - w|| =", np.linalg.norm(D @ r - w))

# solve the small constrained problem and recover the parameters
res = residual_linprog(D, w)
x_opt = l1fit.recover(problem, reduced, res.r)
print("\noptimal residual:", np.round(res.r, 6))
print("l1 cost from the reduction :", l1fit.cost1(problem, x_opt))
print("l1 cost from brute force   :", l1fit.oracle_solve(problem).cost)

# the optimal residual interpolates n rows exactly
zeros = np.abs(res.r) <= 1e-8 * (1 + np.max(np.abs(res.r)))
print("zero-residual rows:", np.flatnonzero(zeros), f"(at least {n} expected)")
