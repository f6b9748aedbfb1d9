"""The records of seven fixed adaptive runs, as float-hex JSON lines.

    python3 bench/records_hex.py > records.jsonl
    python3 bench/records_hex.py --diff old.jsonl new.jsonl

Prints one JSON object per level: the run's name and every
``HistoryRecord`` field except ``cum_time`` and ``peak_rss_kib`` (the
machine-dependent ones), floats as ``float.hex``, and the level's marked
element ids as a count and a SHA-256 of their int64 bytes.  The package
is imported from ``src/`` of the checkout this file sits in, so a
refactor that must keep every number is checked by one ``cmp`` of the
outputs of two checkouts.  Two runs in one checkout must give
byte-identical output: every non-time output is deterministic.

The runs are the three perfbench workloads, goal-singularity at p = 2
and p = 3 to ``max_cost`` 3e4, and zshape-convection at p = 1 and
p = 2 to ``max_cost`` 2e4.

``--diff OLD NEW`` compares two such outputs instead: for each run and
float field it prints the largest relative move |new - old| / |old|,
its absolute size and the first level where it occurs, and it exits 1
when a run's level count, an integer field or a marks hash differs.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import goafem  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUNS = {name: (wl["problem"], wl["params"]) for name, wl in WORKLOADS.items()}
RUNS.update({
    "singularity-p2": ("goal-singularity", {"p": 2, "max_cost": 3e4}),
    "singularity-p3": ("goal-singularity", {"p": 3, "max_cost": 3e4}),
    "zshape-p1": ("zshape-convection", {"p": 1, "max_cost": 2e4}),
    "zshape-p2": ("zshape-convection", {"p": 2, "max_cost": 2e4}),
})
SKIPPED = ("cum_time", "peak_rss_kib")


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def records(name):
    """The JSON lines of run ``name``, one per level."""
    problem, params = RUNS[name]
    result = goafem.run(goafem.get_benchmark(problem).problem, goafem.AdaptiveParams(**params))
    marks = result.marked_history + [None] * (len(result.records) - len(result.marked_history))
    for rec, marked in zip(result.records, marks):
        row = {"run": name}
        row.update({key: _hex(value) for key, value in dataclasses.asdict(rec).items()
                    if key not in SKIPPED})
        if marked is not None:
            ids = np.ascontiguousarray(marked, dtype=np.int64)
            row["marked"] = [int(ids.size), hashlib.sha256(ids.tobytes()).hexdigest()]
        yield json.dumps(row)


def _levels_by_run(path):
    runs = {}
    with open(path) as lines:
        for line in lines:
            row = json.loads(line)
            runs.setdefault(row.pop("run"), {})[row["level"]] = row
    return runs


def diff(old_path, new_path):
    """Print the largest relative float move per run and field between two
    outputs of this script; 1 if any other difference, else 0."""
    old, new = _levels_by_run(old_path), _levels_by_run(new_path)
    status = 0
    for name in dict.fromkeys([*old, *new]):
        before, after = old.get(name, {}), new.get(name, {})
        if len(before) != len(after):
            print(f"{name}: {len(before)} levels, now {len(after)}")
            status = 1
        moves = {}
        for level in sorted(before.keys() & after.keys()):
            a, b = before[level], after[level]
            for key in dict.fromkeys([*a, *b]):
                x, y = a.get(key), b.get(key)
                if isinstance(x, str) and isinstance(y, str):
                    u, v = float.fromhex(x), float.fromhex(y)
                    move = abs(v - u)
                    rel = move / abs(u) if u else math.inf if move else 0.0
                    if rel > moves.get(key, (-1.0,))[0]:
                        moves[key] = (rel, move, level)
                elif x != y:
                    print(f"{name}: level {level} {key} {x} is now {y}")
                    status = 1
        for key, (rel, move, level) in moves.items():
            print(f"{name}: {key} moved {rel:.2e} ({move:.2e} absolute) at level {level}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two outputs of this script instead of running")
    args = parser.parse_args()
    if args.diff:
        sys.exit(diff(*args.diff))
    for name in RUNS:
        for line in records(name):
            print(line, flush=True)


if __name__ == "__main__":
    main()
