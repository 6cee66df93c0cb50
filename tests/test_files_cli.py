import numpy as np
import pytest

from l1fit import add_sparse_noise, gen_instance
from l1fit.cli import main
from l1fit.datafiles import read_matrix, read_vector, write_matrix, write_vector


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
    assert "m > n" in capsys.readouterr().err


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


def test_cli_solve_solver_failure_is_an_error_without_x(tmp_path, capsys):
    # L1-HP's support Gram matrix turns singular on this instance, where the
    # other methods reach cost 3.5; the CLI printed a traceback
    write_matrix(tmp_path / "A.txt", np.array([[0.0, 0.0], [-1.0, -1.0], [-2.0, 2.0], [0.0, 2.0]]))
    write_vector(tmp_path / "b.txt", np.array([-1.0, 0.0, -1.0, -3.0]))
    out = tmp_path / "x.txt"
    code = main(["solve", "--method", "l1-hp", "--matrix", str(tmp_path / "A.txt"),
                 "--rhs", str(tmp_path / "b.txt"), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("l1fit solve: error: degenerate support system")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()
    assert main(["solve", "--method", "l1-lp", "--matrix", str(tmp_path / "A.txt"),
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


@pytest.mark.parametrize("flag,value,message", [
    ("--maxiter", "0", "maxiter"),
    ("--tau", "0", "tau"),
    ("--eps", "-1", "epsilon"),
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
