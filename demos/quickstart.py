"""Fit an overdetermined system in the l1 sense and see why that helps.

A handful of rows are corrupted with large outliers.  Ordinary least
squares smears the damage over every coefficient; the minimum-l1 fit pins
the clean rows exactly and shrugs the outliers off.
"""

import numpy as np

import l1fit

rng = np.random.default_rng(0)
m, n = 40, 5
A = rng.standard_normal((m, n))
truth = rng.standard_normal(n)
b = A @ truth
b[[3, 17, 28]] += np.array([8.0, -6.0, 11.0])  # gross outliers

problem = l1fit.MlmProblem(A, b)

x_ls, *_ = np.linalg.lstsq(A, b, rcond=None)
report = l1fit.solve(problem, "L1-RES")

print("least squares error :", np.linalg.norm(x_ls - truth))
print("min-l1 error        :", np.linalg.norm(report.x - truth))
print("l1 cost             :", report.cost)

# every solver in the family agrees on the optimal cost
print("\nmethod    cost           iterations  converged")
for method in ("L1-LP", "L1-PTB", "L1-RES", "L1-GPSR", "L1-TNIPM",
               "L1-HP", "L1-IST", "L1-ADM", "L1-POB"):
    rep = l1fit.solve(problem, method)
    print(f"{method:9s} {rep.cost:<14.10f} {rep.iterations:<11d} {rep.converged}")

# the residual vanishes on at least n rows at an optimum
zeros = np.abs(report.residual) <= 1e-8 * (1 + np.max(np.abs(report.residual)))
print(f"\nrows fit exactly: {np.count_nonzero(zeros)} of {m} (guaranteed at least {n})")
print("outlier rows carry the residual:", np.flatnonzero(~zeros).tolist())
