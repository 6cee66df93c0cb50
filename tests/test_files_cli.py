import numpy as np
import pytest

from l1fit import add_sparse_noise, direct, gen_instance
from l1fit.cli import main
from l1fit.datafiles import read_matrix, read_vector, write_matrix, write_vector
from support import duplicated_rows_problem, near_rank_deficient_problem, square_problem


def test_matrix_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(80)
    A = rng.standard_normal((5, 3)) * np.exp(rng.standard_normal((5, 3)) * 4.0)
    path = tmp_path / "A.txt"
    write_matrix(path, A)
    assert np.array_equal(read_matrix(path), A)


def test_vector_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(81)
    v = rng.standard_normal(9)
    path = tmp_path / "v.txt"
    write_vector(path, v)
    assert np.array_equal(read_vector(path), v)


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "A.txt"
    path.write_text("# fixture\n2 2\n1 2\n\n# middle\n3 4\n", encoding="utf-8")
    assert np.array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 2\n3 oops\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3"):
        read_matrix(path)
    path.write_text("2 2\n1 2 3\n4 5 6\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 2 values"):
        read_matrix(path)
    path.write_text("3\n1\n2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 3 entries"):
        read_vector(path)
    path.write_text("2 2\n1 2\n3 inf\n", encoding="utf-8")
    with pytest.raises(ValueError, match="non-finite"):
        read_matrix(path)


def test_matrix_rejects_rows_beyond_the_header(tmp_path):
    path = tmp_path / "A.txt"
    path.write_text("2 2\n1 2\n3 4\n# comment\n5 6\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"A\.txt: line 5: data beyond the 2 data rows"):
        read_matrix(path)


def test_vector_rejects_entries_beyond_the_header(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("2\n1\n2\n\n3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"b\.txt: line 5: data beyond the 2 entries"):
        read_vector(path)


def _gen(tmp_path, *extra):
    args = ["gen", "--m", "8", "--n", "3", "--seed", "7",
            "--out-prefix", str(tmp_path) + "/"]
    return main(args + list(extra))


def test_cli_gen_deterministic(tmp_path):
    assert _gen(tmp_path) == 0
    first = (tmp_path / "A.txt").read_bytes(), (tmp_path / "b.txt").read_bytes()
    assert _gen(tmp_path) == 0
    second = (tmp_path / "A.txt").read_bytes(), (tmp_path / "b.txt").read_bytes()
    assert first == second


def test_cli_gen_consistent_when_noise_free(tmp_path):
    assert _gen(tmp_path) == 0
    A = read_matrix(tmp_path / "A.txt")
    b = read_vector(tmp_path / "b.txt")
    p = read_vector(tmp_path / "p.txt")
    assert np.max(np.abs(b - A @ p)) <= 1e-12


def test_cli_gen_rejects_square(capsys):
    assert main(["gen", "--m", "3", "--n", "3"]) == 1
    assert capsys.readouterr().err == "l1fit gen: error: need m > n >= 2, got m=3, n=3\n"


def test_cli_gen_rejects_bad_sparsity(tmp_path):
    assert _gen(tmp_path, "--sparsity", "1.5") == 1


@pytest.mark.parametrize("variance", ["-1", "nan", "inf"])
def test_cli_gen_rejects_bad_noise_variance(tmp_path, capsys, variance):
    assert _gen(tmp_path, "--sparsity", "0.25", "--noise-var", variance) == 1
    assert "l1fit gen: error: noise variance must be finite" in capsys.readouterr().err
    assert not (tmp_path / "b.txt").exists()


def test_cli_gen_unwritable_prefix(tmp_path, capsys):
    prefix = str(tmp_path / "missing" / "dir" / "x_")
    assert main(["gen", "--m", "6", "--n", "2", "--out-prefix", prefix]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_solve_square_consistent(tmp_path, capsys):
    rng = np.random.default_rng(82)
    A = rng.standard_normal((4, 4))
    p = rng.standard_normal(4)
    write_matrix(tmp_path / "A.txt", A)
    write_vector(tmp_path / "b.txt", A @ p)
    for method in ("l1-lp", "l1-res", "l1-hp", "oracle"):
        code = main(["solve", "--method", method,
                     "--matrix", str(tmp_path / "A.txt"),
                     "--rhs", str(tmp_path / "b.txt")])
        captured = capsys.readouterr()
        assert code == 0
        cost = float(captured.err.split("cost: ")[1].splitlines()[0])
        assert cost <= 1e-8
        x = np.array([float(tok) for tok in captured.out.split()])
        assert np.linalg.norm(x - p) <= 1e-6


def test_cli_solve_oracle_matches_reduction_route(tmp_path, capsys):
    rng = np.random.default_rng(83)
    write_matrix(tmp_path / "A.txt", rng.standard_normal((6, 2)))
    write_vector(tmp_path / "b.txt", rng.standard_normal(6))
    costs = {}
    for method in ("oracle", "l1-res"):
        assert main(["solve", "--method", method,
                     "--matrix", str(tmp_path / "A.txt"),
                     "--rhs", str(tmp_path / "b.txt")]) == 0
        costs[method] = float(capsys.readouterr().err.split("cost: ")[1].splitlines()[0])
    assert costs["oracle"] == pytest.approx(costs["l1-res"], rel=1e-6)


def test_cli_solve_missing_rhs_is_usage_error(capsys):
    assert main(["solve", "--method", "l1-res", "--matrix", "A.txt"]) == 1
    assert "rhs" in capsys.readouterr().err


def test_cli_solve_unknown_method_lists_choices(capsys):
    assert main(["solve", "--method", "l1-bogus", "--matrix", "A", "--rhs", "b"]) == 1
    assert "l1-res" in capsys.readouterr().err


def test_cli_solve_parse_failure(tmp_path, capsys):
    bad = tmp_path / "A.txt"
    bad.write_text("2 2\n1 2\n3 oops\n", encoding="utf-8")
    write_vector(tmp_path / "b.txt", np.ones(2))
    assert main(["solve", "--method", "l1-res", "--matrix", str(bad),
                 "--rhs", str(tmp_path / "b.txt")]) == 1
    assert "line 3" in capsys.readouterr().err


def test_cli_solve_rejects_a_truncated_matrix(tmp_path, capsys):
    # a "2 2" header over three rows used to be fitted as the 2 x 2 problem
    bad = tmp_path / "A.txt"
    bad.write_text("2 2\n1 2\n3 4\n5 6\n", encoding="utf-8")
    write_vector(tmp_path / "b.txt", np.ones(2))
    assert main(["solve", "--method", "l1-res", "--matrix", str(bad),
                 "--rhs", str(tmp_path / "b.txt")]) == 1
    captured = capsys.readouterr()
    assert "line 4" in captured.err and captured.out == ""


def test_cli_solve_exit_two_when_budget_exhausted(tmp_path, capsys):
    # the iterative residual methods finish with a simplex crossover, so
    # even three ADM steps end certified; L1-PTB stays nonconverged here
    problem, _ = gen_instance(12, 3, 2)
    write_matrix(tmp_path / "A.txt", problem.A)
    write_vector(tmp_path / "b.txt", add_sparse_noise(problem.b, 0.25, 0.25, 2))
    code = main(["solve", "--method", "l1-ptb", "--maxiter", "3",
                 "--matrix", str(tmp_path / "A.txt"),
                 "--rhs", str(tmp_path / "b.txt"), "--out", str(tmp_path / "x.txt")])
    capsys.readouterr()
    assert code == 2
    assert (tmp_path / "x.txt").exists()  # result still written


def test_cli_solve_solver_failure_is_an_error_without_x(tmp_path, monkeypatch, capsys):
    # a step that never moves x stalls L1-PTB's zero-set growth on a
    # full-rank A: the method broke down, which exits 2
    problem, _ = gen_instance(12, 3, 2)
    write_matrix(tmp_path / "A.txt", problem.A)
    write_vector(tmp_path / "b.txt", add_sparse_noise(problem.b, 0.25, 0.25, 2))
    monkeypatch.setattr(direct, "_best_step", lambda r_star, Ad: 0.0)
    out = tmp_path / "x.txt"
    code = main(["solve", "--method", "l1-ptb", "--matrix", str(tmp_path / "A.txt"),
                 "--rhs", str(tmp_path / "b.txt"), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("l1fit solve: error: zero-set growth stalled")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


def test_cli_solve_infinite_ptb_c_is_a_usage_error(tmp_path, capsys):
    # it printed RuntimeWarnings and exited 2, "zero-set growth stalled"
    problem, _ = gen_instance(12, 3, 2)
    write_matrix(tmp_path / "A.txt", problem.A)
    write_vector(tmp_path / "b.txt", add_sparse_noise(problem.b, 0.25, 0.25, 2))
    code = main(["solve", "--method", "l1-ptb", "--ptb-c", "inf",
                 "--matrix", str(tmp_path / "A.txt"), "--rhs", str(tmp_path / "b.txt")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ("l1fit solve: error: correction scale c must be positive and "
                            "finite, got inf\n")
    assert captured.out == ""


@pytest.mark.parametrize("method", ["l1-ptb", "oracle"])
def test_cli_solve_rank_deficient_a_is_a_usage_error_for_every_method(tmp_path, capsys, method):
    # both used to raise RuntimeError here, and exit 2 as for a breakdown
    problem = duplicated_rows_problem(0)
    write_matrix(tmp_path / "A.txt", problem.A)
    write_vector(tmp_path / "b.txt", problem.b)
    code = main(["solve", "--method", method, "--matrix", str(tmp_path / "A.txt"),
                 "--rhs", str(tmp_path / "b.txt")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("l1fit solve: error: A has column rank below n")
    assert "Traceback" not in captured.err and captured.out == ""


def test_cli_solve_square_system_with_l1_adm(tmp_path, capsys):
    # L1-ADM's sqrt(m - n) = 0 escaped the CLI as a ZeroDivisionError traceback
    problem = square_problem(81)
    write_matrix(tmp_path / "A.txt", problem.A)
    write_vector(tmp_path / "b.txt", problem.b)
    out = tmp_path / "x.txt"
    code = main(["solve", "--method", "l1-adm", "--matrix", str(tmp_path / "A.txt"),
                 "--rhs", str(tmp_path / "b.txt"), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    x = np.array(out.read_text().split(), dtype=float)
    assert np.allclose(problem.A @ x, problem.b, rtol=0.0, atol=1e-12)


def test_cli_solve_rank_below_n_in_rounding_is_an_error(tmp_path, capsys):
    # L1-LP's descent used to end in an IndexError traceback on this input
    problem = near_rank_deficient_problem(25, 14, 4, 0.05)
    write_matrix(tmp_path / "A.txt", problem.A)
    write_vector(tmp_path / "b.txt", problem.b)
    code = main(["solve", "--method", "l1-lp", "--matrix", str(tmp_path / "A.txt"),
                 "--rhs", str(tmp_path / "b.txt")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("l1fit solve: error: A has column rank below n")
    assert "Traceback" not in captured.err and captured.out == ""


def test_cli_solve_homotopy_reaches_the_optimum_on_tied_columns(tmp_path, capsys):
    # L1-HP's support Gram matrix used to turn singular on this instance and
    # the solve failed; on the kernel pair it reaches the optimum 3.5
    write_matrix(tmp_path / "A.txt", np.array([[0.0, 0.0], [-1.0, -1.0], [-2.0, 2.0], [0.0, 2.0]]))
    write_vector(tmp_path / "b.txt", np.array([-1.0, 0.0, -1.0, -3.0]))
    for method in ("l1-hp", "l1-lp"):
        assert main(["solve", "--method", method, "--matrix", str(tmp_path / "A.txt"),
                     "--rhs", str(tmp_path / "b.txt")]) == 0
        assert float(capsys.readouterr().err.split("cost: ")[1].splitlines()[0]) == pytest.approx(3.5)


def test_cli_solve_writes_out_file(tmp_path, capsys):
    rng = np.random.default_rng(85)
    A = rng.standard_normal((6, 2))
    write_matrix(tmp_path / "A.txt", A)
    write_vector(tmp_path / "b.txt", rng.standard_normal(6))
    out = tmp_path / "x.txt"
    assert main(["solve", "--method", "l1-lp", "--matrix", str(tmp_path / "A.txt"),
                 "--rhs", str(tmp_path / "b.txt"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(out.read_text().split()) == 2


def test_cli_bench_writes_csv(tmp_path, capsys):
    csv = tmp_path / "bench.csv"
    code = main(["bench", "--experiment", "noise-free", "--m", "16", "--n", "4",
                 "--repeats", "2", "--seed", "3", "--methods", "L1-RES,L1-HP",
                 "--csv", str(csv)])
    capsys.readouterr()
    assert code == 0
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("method,")
    assert len(lines) == 3
    for line in lines[1:]:
        assert float(line.split(",")[5]) <= 1e-8


def test_cli_bench_prints_nonconverged_counts(tmp_path, capsys):
    # the CSV folds L1-PTB's nonconverged run into its mean; stderr counts it
    assert main(["bench", "--experiment", "sparse-noise", "--m", "12", "--n", "3",
                 "--repeats", "4", "--seed", "0", "--methods", "L1-PTB",
                 "--csv", str(tmp_path / "bench.csv")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "l1fit bench: L1-PTB 12x3 sparsity 0.25: 1 of 4 runs not converged, 0 failed",
        "l1fit bench: L1-PTB 12x3 sparsity 0.5: 0 of 4 runs not converged, 0 failed",
        "l1fit bench: L1-PTB 12x3 sparsity 0.75: 0 of 4 runs not converged, 0 failed",
    ]


def test_cli_bench_deterministic_modulo_runtime(tmp_path, capsys):
    outs = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        assert main(["bench", "--experiment", "noise-free", "--m", "12", "--n", "3",
                     "--repeats", "2", "--seed", "3", "--methods", "l1-res",
                     "--csv", str(path)]) == 0
        capsys.readouterr()
        outs.append(path.read_text(encoding="utf-8").splitlines())
    for line_a, line_b in zip(*outs):
        cells_a, cells_b = line_a.split(","), line_b.split(",")
        for j, (a, b) in enumerate(zip(cells_a, cells_b)):
            if j != 6:
                assert a == b


def test_cli_bench_rejects_zero_repeats(capsys):
    assert main(["bench", "--experiment", "noise-free", "--repeats", "0"]) == 1
    assert "repeats" in capsys.readouterr().err


def test_cli_bench_rejects_unknown_method(tmp_path, capsys):
    csv = tmp_path / "bench.csv"
    assert main(["bench", "--experiment", "noise-free", "--m", "8", "--n", "2", "--repeats", "1",
                 "--methods", "L1-LP,L1-FOO", "--csv", str(csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("l1fit bench: error: unknown methods ['L1-FOO']")
    assert "ORACLE" in err
    assert not csv.exists()


def test_cli_bench_rejects_a_level_that_gives_no_tall_system(tmp_path, capsys):
    csv = tmp_path / "bench.csv"
    assert main(["bench", "--experiment", "drl", "--m", "4", "--n", "2", "--repeats", "1",
                 "--methods", "L1-RES", "--csv", str(csv)]) == 1
    assert capsys.readouterr().err == (
        "l1fit bench: error: redundancy level 1.25 gives m = 2, not above n = 2\n")
    assert not csv.exists()


def test_cli_bench_rejects_two_levels_that_give_one_m(tmp_path, capsys):
    # at n = 3 the levels 1.25 and 1.5 both give m = 4, which was fit twice
    csv = tmp_path / "bench.csv"
    assert main(["bench", "--experiment", "drl", "--m", "12", "--n", "3", "--repeats", "1",
                 "--methods", "L1-LP", "--csv", str(csv)]) == 1
    assert capsys.readouterr().err == (
        "l1fit bench: error: redundancy levels 1.25 and 1.5 both give m = 4 at n = 3\n")
    assert not csv.exists()


def test_cli_bench_rejects_a_method_named_twice(tmp_path, capsys):
    # l1-lp and L1-LP name one method, which was fit twice, every row written twice
    csv = tmp_path / "bench.csv"
    assert main(["bench", "--experiment", "sparse-noise", "--m", "6", "--n", "2", "--repeats", "1",
                 "--methods", "l1-lp,L1-LP", "--csv", str(csv)]) == 1
    assert capsys.readouterr().err == "l1fit bench: error: method L1-LP is named twice\n"
    assert not csv.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--maxiter", "0", "maxiter"),
    ("--tau", "0", "tau"),
    ("--eps", "-1", "epsilon"),
    ("--lambda", "0", "lam"),
    ("--lambda", "inf", "lam"),
    ("--eps", "inf", "epsilon"),
    ("--mu", "inf", "mu"),
])
def test_cli_solve_bad_solver_parameter_is_usage_error(tmp_path, capsys, flag, value, message):
    rng = np.random.default_rng(86)
    write_matrix(tmp_path / "A.txt", rng.standard_normal((6, 2)))
    write_vector(tmp_path / "b.txt", rng.standard_normal(6))
    code = main(["solve", "--method", "l1-adm", "--matrix", str(tmp_path / "A.txt"),
                 "--rhs", str(tmp_path / "b.txt"), flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("l1fit solve: error: ") and message in err
