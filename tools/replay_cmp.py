"""Compare two replays from ``tools/replay.py``: rounding moves apart from moved verdicts.

    python3 tools/replay_cmp.py PARENT.txt CHANGE.txt

Lines are matched on (workload, key, label).  Per workload and label it
prints how many lines are

    same     byte-identical;
    round    moved in the x hash or the cost only, iterations and converged
             kept (``max_rel`` is the largest relative cost change);
    iters    moved in the iteration count, converged kept;
    verdict  moved in converged, or in the error state (an error that
             appears, goes, or changes its message),

then lists each line whose verdict moved and each key found in one file
only.  It exits 1 when a verdict moved or the keys differ, else 0.
"""

from __future__ import annotations

import sys

KINDS = ("same", "round", "iters", "verdict")


def parse(lines):
    """{(workload, key, label): fields after the label} of replay lines."""
    fits = {}
    for line in lines:
        workload, key, label, rest = line.split(maxsplit=3)
        fits[(workload, key, label)] = rest
    return fits


def kind(old, new):
    """(one of ``KINDS``, relative cost change) of the move from fields ``old`` to ``new``.

    The cost change is reported for a rounding move only, else 0.0.
    """
    if old == new:
        return "same", 0.0
    if old.startswith("error:") or new.startswith("error:"):
        return "verdict", 0.0
    _, old_it, old_conv, old_cost = old.split()
    _, new_it, new_conv, new_cost = new.split()
    if old_conv != new_conv:
        return "verdict", 0.0
    if old_it != new_it:
        return "iters", 0.0
    old_cost, new_cost = float(old_cost), float(new_cost)
    return "round", abs(new_cost - old_cost) / max(abs(old_cost), abs(new_cost), 1e-300)


def compare(old_lines, new_lines):
    """(report lines, failed): the per-label table, then moved verdicts and unmatched keys."""
    old, new = parse(old_lines), parse(new_lines)
    table, moved = {}, []
    for fit in (fit for fit in old if fit in new):
        counts = table.setdefault((fit[0], fit[2]), dict.fromkeys(KINDS, 0) | {"max_rel": 0.0})
        what, rel = kind(old[fit], new[fit])
        counts[what] += 1
        counts["max_rel"] = max(counts["max_rel"], rel)
        if what == "verdict":
            moved.append(f"verdict {' '.join(fit)}: {old[fit]} -> {new[fit]}")
    unmatched = [f"only in {side} {' '.join(fit)}"
                 for side, this, other in (("parent", old, new), ("change", new, old))
                 for fit in this if fit not in other]
    report = [f"{'workload':<16}{'label':<10}" + "".join(f"{k:>9}" for k in KINDS) + "  max_rel"]
    for (workload, label), counts in table.items():
        report.append(f"{workload:<16}{label:<10}" + "".join(f"{counts[k]:>9}" for k in KINDS)
                      + f"  {counts['max_rel']:.2e}")
    return report + moved + unmatched, bool(moved or unmatched)


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: replay_cmp.py PARENT.txt CHANGE.txt")
    old_lines, new_lines = (open(path).read().splitlines() for path in argv)
    report, failed = compare(old_lines, new_lines)
    print("\n".join(report))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
