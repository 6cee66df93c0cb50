import numpy as np
import pytest

from l1fit import ExperimentSpec, add_sparse_noise, gen_instance, methods, run_experiment, write_csv
from l1fit.bench import CSV_HEADER, BenchRecord
from l1fit.rng import normals, raw_words, uniforms

# regression pins: these freeze the generator so seeded instances stay
# reproducible across releases and ports
FROZEN_WORDS_SEED0_SALT1 = [2158877437495972032, 13478867662433407223, 2832237865682406108]
FROZEN_NORMALS_SEED0_SALT1 = [
    -0.2506890562322436,
    -2.0561502857265337,
    1.7985993891238077,
    0.7160179274872711,
]


def test_raw_words_frozen():
    assert list(raw_words(0, 3, salt=1)) == FROZEN_WORDS_SEED0_SALT1


def test_normals_frozen():
    assert normals(0, 4, salt=1) == pytest.approx(FROZEN_NORMALS_SEED0_SALT1, abs=0.0)


def test_uniforms_in_unit_interval():
    u = uniforms(123, 10000)
    assert np.all(u > 0.0) and np.all(u <= 1.0)
    assert abs(np.mean(u) - 0.5) < 0.02


def test_streams_are_independent_and_deterministic():
    a = normals(5, 64, salt=1)
    b = normals(5, 64, salt=2)
    assert not np.allclose(a, b)
    assert np.array_equal(a, normals(5, 64, salt=1))
    # counter-based: a prefix equals the head of a longer draw
    assert np.array_equal(normals(5, 10, salt=1), normals(5, 64, salt=1)[:10])


def test_gen_instance_deterministic_and_consistent():
    first, p1 = gen_instance(12, 4, seed=9)
    second, p2 = gen_instance(12, 4, seed=9)
    assert np.array_equal(first.A, second.A)
    assert np.array_equal(p1, p2)
    assert np.array_equal(first.b, second.b)
    assert np.max(np.abs(first.b - first.A @ p1)) == 0.0
    with pytest.raises(ValueError):
        gen_instance(4, 4, seed=0)


def test_gen_instance_normal_concentration():
    prob, _ = gen_instance(256, 128, seed=3)  # m * n = 2**15
    assert abs(np.mean(prob.A)) <= 4.0 / np.sqrt(256 * 128)
    assert abs(np.std(prob.A) - 1.0) <= 0.02


def test_sparse_noise_counts():
    b = np.zeros(256)
    noisy = add_sparse_noise(b, 0.25, 0.25, seed=0)
    assert np.count_nonzero(noisy) == 64
    assert np.array_equal(add_sparse_noise(b, 0.0, 0.25, seed=0), b)
    assert np.count_nonzero(add_sparse_noise(b, 1.0, 0.25, seed=0)) == 256


def test_sparse_noise_scale_and_flag():
    # ``variance`` is a variance: 0.25 gives a standard deviation of 0.5
    b = np.zeros(4096)
    q_var = add_sparse_noise(b, 1.0, 0.25, seed=1)
    assert np.std(q_var) == pytest.approx(0.5, rel=0.05)
    assert np.array_equal(add_sparse_noise(b, 0.5, 0.25, seed=1),
                          add_sparse_noise(b, 0.5, 0.25, seed=1))


def test_sparse_noise_validation():
    with pytest.raises(ValueError):
        add_sparse_noise(np.zeros(4), 1.5, 0.25, seed=0)
    for variance in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            add_sparse_noise(np.zeros(4), 0.5, variance, seed=0)


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(kind="bogus")
    with pytest.raises(ValueError):
        ExperimentSpec(kind="noise_free", m=4, n=4)
    with pytest.raises(ValueError):
        ExperimentSpec(kind="noise_free", repeats=0)
    with pytest.raises(ValueError):
        ExperimentSpec(kind="sparse_noise", sparsity_ratios=(1.5,))
    with pytest.raises(ValueError):
        ExperimentSpec(kind="drl_sweep", drl_values=(0.5,))
    # grids gen_instance cannot build used to run, every repetition an error
    with pytest.raises(ValueError, match="need m > n >= 2, got m=20, n=1"):
        ExperimentSpec(kind="noise_free", m=20, n=1)
    with pytest.raises(ValueError, match="redundancy level 1.25 gives m = 2, not above n = 2"):
        ExperimentSpec(kind="drl_sweep", m=4, n=2)
    ExperimentSpec(kind="noise_free", m=4, n=2)  # the levels set m only in a redundancy sweep
    # two levels that round to one m used to fit it twice, the second reported at the first's level
    with pytest.raises(ValueError, match="redundancy levels 1.25 and 1.5 both give m = 4 at n = 3"):
        ExperimentSpec(kind="drl_sweep", m=12, n=3)
    with pytest.raises(ValueError):
        ExperimentSpec(kind="noise_free", methods=())
    # a NaN variance used to run the whole campaign, every repetition an error
    for variance in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ExperimentSpec(kind="sparse_noise", noise_variance=variance)


def test_experiment_spec_rejects_unknown_method():
    # an unknown label used to run the campaign and report it as a row of solver errors
    with pytest.raises(ValueError, match="unknown methods \\['L1-FOO'\\]; valid methods: L1-LP,"):
        ExperimentSpec(kind="noise_free", methods=("L1-LP", "L1-FOO"))
    # labels match case-insensitively, as ``solve`` matches them
    assert ExperimentSpec(kind="noise_free", methods=("l1-res", "oracle")).methods == ("l1-res", "oracle")


def test_run_experiment_basic():
    spec = ExperimentSpec(kind="noise_free", m=16, n=4, repeats=3, seed=5,
                          methods=("L1-RES", "L1-HP"))
    records = run_experiment(spec)
    assert len(records) == 2
    assert [rec.method for rec in records] == ["L1-HP", "L1-RES"]  # sorted
    for rec in records:
        assert rec.repeats == 3
        assert rec.errors == 0
        assert rec.mean_rel_err <= 1e-8
        assert rec.drl == pytest.approx(4.0)


def test_run_experiment_counts_failures():
    # the brute-force method refuses 16x4 instances, so every repetition errors
    spec = ExperimentSpec(kind="noise_free", m=16, n=4, repeats=2, seed=5,
                          methods=("ORACLE",))
    rec = run_experiment(spec)[0]
    assert rec.errors == 2
    assert np.isnan(rec.mean_rel_err)


def test_run_experiment_counts_nonconverged_runs(monkeypatch, tmp_path):
    # L1-PTB stops nonconverged on one of these four inputs; the count
    # matches the reports, and the CSV row keeps its nine columns
    flags = []
    solve = methods.solve

    def recording(problem, method):
        report = solve(problem, method)
        flags.append((method, report.converged))
        return report

    monkeypatch.setattr(methods, "solve", recording)
    spec = ExperimentSpec(kind="sparse_noise", m=12, n=3, repeats=4, seed=0,
                          sparsity_ratios=(0.25,), methods=("L1-PTB", "L1-LP"))
    records = {rec.method: rec for rec in run_experiment(spec)}
    for method, rec in records.items():
        assert rec.nonconverged == sum(1 for label, ok in flags if label == method and not ok)
    assert (records["L1-PTB"].nonconverged, records["L1-LP"].nonconverged) == (1, 0)
    path = tmp_path / "runs.csv"
    write_csv(records.values(), path)
    assert [len(line.split(",")) for line in path.read_text().splitlines()] == [9] * 3


def test_run_experiment_lets_a_bug_propagate(monkeypatch):
    # only solver failures (ValueError, RuntimeError) are counted as errors
    def broken(problem, method):
        raise TypeError("a bug, not a solver failure")

    monkeypatch.setattr(methods, "solve", broken)
    spec = ExperimentSpec(kind="noise_free", m=16, n=4, repeats=2, seed=5, methods=("L1-RES",))
    with pytest.raises(TypeError, match="a bug"):
        run_experiment(spec)


def test_run_experiment_sparse_noise_grid():
    spec = ExperimentSpec(kind="sparse_noise", m=16, n=4, repeats=2, seed=5,
                          sparsity_ratios=(0.25, 0.5), methods=("L1-RES",))
    records = run_experiment(spec)
    assert [rec.sparsity for rec in records] == [0.25, 0.5]
    assert all(rec.mean_rel_err > 0 for rec in records)


def test_run_experiment_drl_grid_sets_m():
    spec = ExperimentSpec(kind="drl_sweep", m=64, n=8, repeats=1, seed=5,
                          drl_values=(2.0, 4.0), methods=("L1-RES",))
    records = run_experiment(spec)
    assert [rec.m for rec in records] == [16, 32]
    assert [rec.drl for rec in records] == [2.0, 4.0]


def test_relative_error_orthogonally_invariant():
    rng = np.random.default_rng(70)
    x_hat = rng.standard_normal(6)
    p = rng.standard_normal(6)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    eta = np.linalg.norm(x_hat - p) / np.linalg.norm(p)
    eta_rot = np.linalg.norm(Q @ x_hat - Q @ p) / np.linalg.norm(Q @ p)
    assert eta_rot == pytest.approx(eta, rel=1e-12)


def test_csv_deterministic_modulo_runtime(tmp_path):
    spec = ExperimentSpec(kind="noise_free", m=12, n=3, repeats=2, seed=1,
                          methods=("L1-RES", "L1-HP"))
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        write_csv(run_experiment(spec), path)
    rows = []
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == CSV_HEADER
        assert text.endswith("\n") and "\r" not in text
        rows.append([line.split(",") for line in text.splitlines()[1:]])
    runtime_col = CSV_HEADER.split(",").index("mean_runtime_s")
    for row_a, row_b in zip(*rows):
        for j, (cell_a, cell_b) in enumerate(zip(row_a, row_b)):
            if j != runtime_col:
                assert cell_a == cell_b


def test_csv_float_precision(tmp_path):
    rec = BenchRecord(method="L1-RES", m=8, n=2, sparsity=1.0 / 3.0, drl=4.0,
                      mean_rel_err=np.pi * 1e-11, mean_runtime_s=0.25, repeats=1, errors=0)
    path = tmp_path / "one.csv"
    write_csv([rec], path)
    cells = path.read_text(encoding="utf-8").splitlines()[1].split(",")
    assert float(cells[3]) == 1.0 / 3.0
    assert float(cells[5]) == np.pi * 1e-11
