"""How close a fresh run of each benchmark workload lies to its reference.

    python3 bench/reference_margin.py [--workload NAME ...]

For each workload of ``perfbench/workloads.py`` this runs the adaptive
loop once, in this process, formats its rows as the benchmark worker
does and prints, per float column, the largest relative distance of a
row from the reference CSV (``perfbench/reference/<workload>.csv``):
the distance that ``workloads.mismatches`` holds to ``REL_TOL``, with
the level where it occurs and its share of ``REL_TOL``.  A change that
moves numbers by rounding can read here how much of the check's budget
is already used.  It reads ``perfbench/`` and writes nothing; it exits 1
when a run's level count or an integer cell differs from the reference,
or a float distance exceeds ``REL_TOL``.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import goafem  # noqa: E402
from workloads import (COLUMNS, INT_COLUMNS, REL_TOL, WORKLOADS, format_rows,  # noqa: E402
                       read_reference, reference_path)


def distance(got, want, scale):
    """|got - want| relative to the larger of |got|, |want| and ``scale``,
    the quantity the reference check bounds by REL_TOL."""
    g, w = float(got), float(want)
    denom = max(abs(g), abs(w), scale)
    return abs(g - w) / denom if denom else 0.0


def margins(name):
    """The rows of a fresh run of workload ``name`` against its reference:
    (column, largest relative distance, level) per float column, and the
    differences that are not a float distance."""
    wl = WORKLOADS[name]
    spec = goafem.get_benchmark(wl["problem"])
    rows = format_rows(goafem.run(spec.problem, goafem.AdaptiveParams(**wl["params"])).records,
                       spec.exact_goal)
    reference = read_reference(reference_path(name))
    other = [] if len(rows) == len(reference) else [
        f"{len(rows)} levels, reference has {len(reference)}"]
    worst = {}
    for level, (got, want) in enumerate(zip(rows, reference)):
        goal = abs(float(want[COLUMNS.index("goalValue")]))
        for column, g, w in zip(COLUMNS, got, want):
            if column in INT_COLUMNS or g == "" or w == "":
                if g != w:
                    other.append(f"level {level} {column}: {g!r} != reference {w!r}")
                continue
            d = distance(g, w, goal if column == "goalError" else 0.0)
            if d > worst.get(column, (-1.0,))[0]:
                worst[column] = (d, level)
    return [(column, d, level) for column, (d, level) in worst.items()], other


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS))
    args = parser.parse_args()
    status = 0
    for name in args.workload:
        floats, other = margins(name)
        for column, d, level in floats:
            print(f"{name}: {column} {d:.2e} at level {level} "
                  f"({d / REL_TOL:.2f} of REL_TOL {REL_TOL:g})")
            status |= d > REL_TOL
        for line in other:
            print(f"{name}: {line}")
            status = 1
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
