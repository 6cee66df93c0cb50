"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
scale experiments reuse the benchmark harness at its pinned seeds, so every
number here is reproducible.
"""

import numpy as np

from l1fit import (
    ExperimentSpec,
    MlmProblem,
    SolverParams,
    add_sparse_noise,
    fit_linprog,
    gen_instance,
    oracle_solve,
    run_experiment,
    solve,
    write_csv,
)
from l1fit.linalg import norm2, nullspace_basis, pinv, soft
from l1fit.residual_solvers import (
    residual_adm,
    residual_gpsr,
    residual_homotopy,
    residual_ist,
    residual_linprog,
    residual_pob,
    residual_tnipm,
)
from support import paper_pair

EXACT_METHODS = ("L1-LP", "L1-RES")
ITERATIVE_METHODS = ("L1-GPSR", "L1-TNIPM", "L1-HP", "L1-IST", "L1-ADM", "L1-POB")
REV_METHODS = ("L1-RES",) + ITERATIVE_METHODS
REV_SOLVERS = (residual_linprog, residual_gpsr, residual_tnipm, residual_homotopy, residual_ist,
               residual_adm, residual_pob)


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _small_instances(count, seed):
    rng = np.random.default_rng(seed)
    for i in range(count):
        m = 6 + i % 7
        n = 2 + i % 2
        yield MlmProblem(rng.standard_normal((m, n)), rng.standard_normal(m))


def test_criterion_1_oracle_equivalence():
    worst_exact = 0.0
    worst_iter = 0.0
    for prob in _small_instances(50, seed=1):
        ref = oracle_solve(prob).cost
        for method in EXACT_METHODS:
            worst_exact = max(worst_exact, abs(solve(prob, method).cost - ref) / ref)
        for method in ITERATIVE_METHODS:
            worst_iter = max(worst_iter, abs(solve(prob, method).cost - ref) / ref)
    ok = worst_exact <= 1e-9 and worst_iter <= 1e-3
    _report(1, ok, f"oracle equivalence over 50 instances: exact worst rel "
                   f"{worst_exact:.2e} (<=1e-9), iterative worst rel {worst_iter:.2e} (<=1e-3)")


def test_criterion_2_noise_free_accuracy():
    spec = ExperimentSpec(kind="noise_free", m=256, n=128, repeats=5, seed=0,
                          methods=EXACT_METHODS + ITERATIVE_METHODS)
    records = {rec.method: rec for rec in run_experiment(spec)}
    exact = max(records[m].mean_rel_err for m in EXACT_METHODS)
    iterative = max(records[m].mean_rel_err for m in ITERATIVE_METHODS)
    ok = exact <= 1e-10 and iterative <= 1e-6
    _report(2, ok, f"noise-free m=256 n=128 N=5: exact mean eta {exact:.2e} (<=1e-10), "
                   f"iterative mean eta {iterative:.2e} (<=1e-6)")


def test_criterion_3_sparse_noise_accuracy():
    spec = ExperimentSpec(kind="sparse_noise", m=256, n=128, repeats=10, seed=0,
                          sparsity_ratios=(0.25, 0.75), noise_variance=0.25,
                          methods=REV_METHODS)
    table = {}
    for rec in run_experiment(spec):
        table.setdefault(rec.method, {})[rec.sparsity] = rec.mean_rel_err
    worst_low = max(vals[0.25] for vals in table.values())
    monotone = all(vals[0.75] >= vals[0.25] for vals in table.values())
    ok = worst_low <= 0.03 and monotone
    _report(3, ok, f"sparse noise m=256 n=128 N=10: worst mean eta at 0.25 is "
                   f"{worst_low:.2e} (<=0.03); eta(0.75) >= eta(0.25) per method: {monotone}")


def test_criterion_4_redundancy_trend():
    spec = ExperimentSpec(kind="drl_sweep", m=100, n=50, repeats=10, seed=0,
                          drl_values=(1.5, 2.0, 4.0, 8.0), methods=("L1-RES",))
    records = run_experiment(spec)
    etas = [rec.mean_rel_err for rec in sorted(records, key=lambda rec: rec.drl)]
    # 10% relative uptick allowance plus an absolute floor of 1e-12: once the
    # sweep reaches exact recovery the metric only measures rounding noise
    ok = all(b <= 1.1 * a + 1e-12 for a, b in zip(etas, etas[1:]))
    _report(4, ok, "redundancy sweep n=50, mean eta over DRL {1.5,2,4,8}: "
                   + ", ".join(f"{v:.2e}" for v in etas))


def test_criterion_5_residual_sparsity():
    rng = np.random.default_rng(5)
    ok = True
    worst = 0
    for _ in range(50):
        m = int(rng.integers(8, 21))
        n = int(rng.integers(2, 7))
        prob = MlmProblem(rng.standard_normal((m, n)), rng.standard_normal(m))
        r = fit_linprog(prob).residual
        zeros = int(np.count_nonzero(np.abs(r) <= 1e-8 * (1.0 + np.max(np.abs(r)))))
        ok = ok and zeros >= n
        worst = max(worst, n - zeros)
    _report(5, ok, f"vertex residuals carry >= n zeros on 50 instances "
                   f"(worst shortfall {worst})")


def test_criterion_6_right_factor_equivalence():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(6, 14))
        n = int(rng.integers(2, 5))
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        # well-conditioned invertible right factor (condition <= 100)
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        P = q1 @ np.diag(np.logspace(-1.0, 1.0, n)) @ q2
        c_plain = fit_linprog(MlmProblem(A, b)).cost
        c_factored = fit_linprog(MlmProblem(A @ P, b)).cost
        worst = max(worst, abs(c_plain - c_factored) / c_plain)
    ok = worst <= 1e-6
    _report(6, ok, f"minimal cost invariant under right factors: worst rel "
                   f"diff {worst:.2e} (<=1e-6)")


def test_criterion_7_rev_solver_feasibility():
    params = SolverParams()
    worst = 0.0
    ok = True
    probes = list(_small_instances(15, seed=7))
    big, _ = gen_instance(256, 128, seed=0)
    probes.append(MlmProblem(big.A, add_sparse_noise(big.b, 0.25, 0.25, seed=0)))
    for prob in probes:
        D, w = paper_pair(prob)
        bound = max(params.epsilon, 1e-6 * (1.0 + norm2(w)))
        for fn in REV_SOLVERS:
            gap = norm2(D @ fn(D, w, params).r - w)
            worst = max(worst, gap / bound)
            ok = ok and gap <= bound
    _report(7, ok, f"every returned residual satisfies the constraint bound "
                   f"(worst gap/bound {worst:.2f})")


def test_criterion_8_numerical_kernels():
    rng = np.random.default_rng(8)
    penrose = 0.0
    for m, n in [(5, 3), (3, 5), (8, 8), (8, 4)]:
        A = rng.standard_normal((m, n))
        G = pinv(A)
        tol = 1.0 + np.max(np.abs(A))
        penrose = max(
            penrose,
            np.max(np.abs(A @ G @ A - A)) / tol,
            np.max(np.abs(G @ A @ G - G)) / tol,
            np.max(np.abs((A @ G).T - A @ G)) / tol,
            np.max(np.abs((G @ A).T - G @ A)) / tol,
        )
    null_res = 0.0
    for _ in range(5):
        A = rng.standard_normal((3, 7))
        N = nullspace_basis(A)
        null_res = max(null_res, float(np.max(np.abs(A @ N))),
                       float(np.max(np.abs(N.T @ N - np.eye(N.shape[1])))))
    soft_exact = (soft(3.0, 1.0) == 2.0 and soft(-3.0, 1.0) == -2.0
                  and soft(0.5, 1.0) == 0.0 and soft(0.0, 0.0) == 0.0)
    ok = penrose <= 1e-9 and null_res <= 1e-10 and soft_exact
    _report(8, ok, f"kernels: penrose {penrose:.1e} (<=1e-9), nullspace "
                   f"{null_res:.1e} (<=1e-10), soft identities exact: {soft_exact}")


def test_criterion_9_runtime_ratios_reported(tmp_path):
    spec = ExperimentSpec(kind="noise_free", m=64, n=32, repeats=3, seed=0,
                          methods=("L1-RES", "L1-HP", "L1-POB"))
    records = run_experiment(spec)
    path = tmp_path / "timing.csv"
    write_csv(records, path)
    header = path.read_text(encoding="utf-8").splitlines()[0].split(",")
    ok = "mean_runtime_s" in header and len(records) == 3
    times = {rec.method: rec.mean_runtime_s for rec in records}
    base = times["L1-RES"]
    _report(9, ok, "timing ratios reported, not gated: "
                   + ", ".join(f"{m}/L1-RES={times[m] / base:.2f}" for m in times))
