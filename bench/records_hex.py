"""The records of seven fixed adaptive runs, as float-hex JSON lines.

    python3 bench/records_hex.py > records.jsonl

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
"""

import dataclasses
import hashlib
import json
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


def main():
    for name in RUNS:
        for line in records(name):
            print(line, flush=True)


if __name__ == "__main__":
    main()
