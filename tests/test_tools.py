"""The tools run end to end on small inputs: the two-tree timers ``tools/ab.py``
and ``tools/reduce_sizes.py``, the answer replay ``tools/replay.py`` and its
comparison ``tools/replay_cmp.py``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import l1fit  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_times_one_tree_against_itself():
    ab = _tool("ab")
    trees = [ab.load(ROOT / "src", "l1fit_ab_old"), ab.load(ROOT / "src", "l1fit_ab_new")]
    assert trees[0] is not trees[1] and trees[0].solve is not trees[1].solve
    inst = WORKLOADS["small-batch"].inputs(1, 0)[0]
    fits = [(inst, label) for label in l1fit.ALL_METHODS]
    secs = ab.time_fits(trees, fits, passes=2)
    assert secs.shape == (len(fits), 2) and (secs > 0).all()
    lines = ab.report("small-batch", fits, secs)
    assert [line.split()[1] for line in lines] == [*l1fit.ALL_METHODS, "all"]
    with pytest.raises(ValueError, match="even"):
        ab.time_fits(trees, fits, passes=3)


def test_ab_fits_tall_round_zero_as_replay_does(tmp_path, capsys):
    # tall-multi-rhs is timed through l1fit.solve over the benchmark's default
    # labels on round 0 of each seed, every right-hand side, as replay.py fits it
    ab = _tool("ab")
    labels = l1fit.bench.DEFAULT_BENCH_METHODS
    fits = ab.workload_fits(workloads, ab.TALL, [1], labels)
    rhs = [inst for _, group in WORKLOADS[ab.TALL].inputs(1, 0) for inst in group]
    assert [(inst.key, label) for inst, label in fits] == [(i.key, label) for i in rhs for label in labels]
    small = ab.workload_fits(workloads, "small-batch", [1], labels)
    assert len(small) == WORKLOADS["small-batch"].min_rounds * 27 * len(l1fit.ALL_METHODS)
    trees = [ab.load(ROOT / "src", "l1fit_ab_old"), ab.load(ROOT / "src", "l1fit_ab_new")]
    secs = ab.time_fits(trees, [(fits[0][0], "L1-HP")], passes=2)
    assert secs.shape == (1, 2) and (secs > 0).all()
    with pytest.raises(SystemExit):  # the workload is accepted; the missing tree is not
        ab.main([str(tmp_path), str(tmp_path), "--workloads", ab.TALL])
    assert "holds no l1fit package" in capsys.readouterr().err


def test_ab_labels_time_one_label_alone(monkeypatch, capsys):
    # --labels keeps one label's fits; square has no ORACLE fit and is skipped
    ab = _tool("ab")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # main sets them; restored after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    src = str(ROOT / "src")
    ab.main([src, src, "--workloads", "small-batch", "square", "--seeds", "1", "--labels", "oracle"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["small-batch", "ORACLE"], ["small-batch", "all"]]
    assert int(lines[-1].split()[3]) == WORKLOADS["small-batch"].min_rounds * 27
    with pytest.raises(SystemExit):
        ab.main([src, src, "--labels", "L1-LP", "L1-FOO"])
    assert "unknown labels ['L1-FOO']" in capsys.readouterr().err


def test_reduce_sizes_times_both_branches(monkeypatch, capsys):
    # one line per shape: 6 x 2 is inside the thin-SVD rule, 49 x 8 just outside
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # main sets them; restored after the test
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # the tool imports ab beside it
    sizes = _tool("reduce_sizes")
    assert (12, 3) in sizes.grid() and all(m > n for m, n in sizes.grid())
    src = str(ROOT / "src")
    sizes.main([src, src, "--rounds", "2", "--shapes", "6x2", "49x8"])
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [fields[:4] for fields in lines] == [["6x2", "mn2", "24", "svd"], ["49x8", "mn2", "3136", "qr"]]
    assert all(float(fields[-1]) > 0 for fields in lines)


def test_replay_gives_one_stable_line_per_label():
    replay = _tool("replay")
    inst = WORKLOADS["small-batch"].inputs(1, 0)[0]
    lines = [replay.fit_line(l1fit, "small-batch", inst, label) for label in l1fit.ALL_METHODS]
    for line, label in zip(lines, l1fit.ALL_METHODS):
        fields = line.split()
        assert fields[:3] == ["small-batch", inst.key, label]
        if fields[3] != "error:":
            assert len(fields) == 7 and len(fields[3]) == 16
            assert int(fields[4]) >= 0 and fields[5] in ("True", "False") and float(fields[6]) >= 0
    assert [replay.fit_line(l1fit, "small-batch", inst, label) for label in l1fit.ALL_METHODS] == lines


PARENT_REPLAY = """\
small-batch 8x3/g0.25/s1 L1-LP 00aa 2 True 1.5
small-batch 8x3/g0.25/s1 L1-PTB 00bb 15 False 2.0
small-batch 8x3/g0.25/s2 L1-PTB 00cc 3 True 4.0
small-batch 8x3/g0.25/s3 L1-PTB error: RuntimeError: zero-set growth stalled
square 256x128/g0.0/s1 L1-HP 00dd 40 True 7.0
"""


def _compare_files(tmp_path, parent, change):
    """(stdout lines, exit code) of ``replay_cmp.py`` on two replay texts."""
    paths = []
    for name, text in (("parent.txt", parent), ("change.txt", change)):
        paths.append(tmp_path / name)
        paths[-1].write_text(text)
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "replay_cmp.py"), *map(str, paths)],
                          capture_output=True, text=True, check=False)
    return proc.stdout.splitlines(), proc.returncode


def test_replay_cmp_tells_a_rounding_move_from_a_moved_verdict(tmp_path):
    # a new x hash and a cost 2 ulp off with iterations and converged kept
    # is a rounding move; a changed iteration count is reported apart; both
    # keep the verdicts, so the exit code is 0
    change = (PARENT_REPLAY.replace("00bb 15 False 2.0", "11bb 15 False 2.0000000000000004")
              .replace("00dd 40", "00dd 41"))
    lines, code = _compare_files(tmp_path, PARENT_REPLAY, change)
    assert code == 0
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in lines[1:]}
    assert rows[("small-batch", "L1-LP")] == ["1", "0", "0", "0", "0.00e+00"]
    assert rows[("small-batch", "L1-PTB")] == ["2", "1", "0", "0", "2.22e-16"]
    assert rows[("square", "L1-HP")] == ["0", "0", "1", "0", "0.00e+00"]


@pytest.mark.parametrize("old,new", [
    ("00cc 3 True 4.0", "00cc 3 False 4.0"),
    ("00cc 3 True 4.0", "error: ValueError: A has column rank below n"),
    ("error: RuntimeError: zero-set growth stalled", "00ee 15 False 3.0"),
])
def test_replay_cmp_fails_on_a_moved_verdict(tmp_path, old, new):
    lines, code = _compare_files(tmp_path, PARENT_REPLAY, PARENT_REPLAY.replace(old, new))
    assert code == 1
    assert [line for line in lines if line.startswith("verdict ")] == [
        f"verdict small-batch {key} L1-PTB: {old} -> {new}"
        for key in ["8x3/g0.25/s2" if "00cc" in old else "8x3/g0.25/s3"]]


def test_replay_cmp_fails_on_mismatched_keys(tmp_path):
    change = PARENT_REPLAY.replace("s1 L1-LP", "s9 L1-LP")
    lines, code = _compare_files(tmp_path, PARENT_REPLAY, change)
    assert code == 1
    assert lines[-2:] == ["only in parent small-batch 8x3/g0.25/s1 L1-LP",
                          "only in change small-batch 8x3/g0.25/s9 L1-LP"]
