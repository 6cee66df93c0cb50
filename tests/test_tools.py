"""The tools run end to end on one small input: the two-tree timer ``tools/ab.py``
and the answer replay ``tools/replay.py``."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import l1fit  # noqa: E402
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


def test_replay_gives_one_stable_line_per_label():
    replay = _tool("replay")
    inst = WORKLOADS["small-batch"].inputs(1, 0)[0]
    lines = replay.fit_lines(l1fit, "small-batch", inst, l1fit.ALL_METHODS)
    assert len(lines) == len(l1fit.ALL_METHODS)
    for line, label in zip(lines, l1fit.ALL_METHODS):
        fields = line.split()
        assert fields[:3] == ["small-batch", inst.key, label]
        if fields[3] != "error:":
            assert len(fields) == 7 and len(fields[3]) == 16
            assert int(fields[4]) >= 0 and fields[5] in ("True", "False") and float(fields[6]) >= 0
    assert replay.fit_lines(l1fit, "small-batch", inst, l1fit.ALL_METHODS) == lines
