"""Traced memory of each driver phase on the last level of a run.

    python3 bench/memory_phases.py [--workload NAME ...]

For each workload of ``perfbench/workloads.py`` this runs the adaptive
loop once, in this process, under ``tracemalloc``, with the per-level
calls of ``goafem.driver`` (``PHASES``) wrapped.  For every such call of
the last level it prints the traced MiB before the call, the peak during
it and the MiB after it, and it names the call that sets the level's
peak.  A call made with "primal" or "dual" is named with it.  Traced
memory counts what Python and numpy allocate, not the process's resident
set; the numbers of the run do not change, but it runs several times
slower.  It reads ``perfbench/workloads.py`` and writes nothing.
"""

import argparse
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import goafem  # noqa: E402
from goafem import driver  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the names the driver calls once or twice per level, none inside another;
# a level starts with build_space
PHASES = ("build_space", "assemble", "build_preconditioner", "EstimatorGeometry", "prolong",
          "EstimatorWorkspace", "solve_estimate", "goal_value", "doerfler_mark",
          "combine_marks", "refine")
MIB = 2.0 ** 20


def phases(name):
    """Run workload ``name``; per call of its last level, (call, traced
    bytes before, peak during, after), and the level's element count."""
    levels = []

    def wrap(phase, fn):
        def call(*args, **kwargs):
            if phase == "build_space":
                levels.append([])
            side = " ".join(a for a in args if isinstance(a, str) and a in ("primal", "dual"))
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                after, peak = tracemalloc.get_traced_memory()
                levels[-1].append((f"{phase} {side}".strip(), before, peak, after))
        return call

    missing = [phase for phase in PHASES if not hasattr(driver, phase)]
    if missing:
        raise SystemExit(f"goafem.driver no longer calls {', '.join(missing)}")
    originals = {phase: getattr(driver, phase) for phase in PHASES}
    wl = WORKLOADS[name]
    problem = goafem.get_benchmark(wl["problem"]).problem
    tracemalloc.start()
    try:
        for phase, fn in originals.items():
            setattr(driver, phase, wrap(phase, fn))
        result = goafem.run(problem, goafem.AdaptiveParams(**wl["params"]))
    finally:
        tracemalloc.stop()
        for phase, fn in originals.items():
            setattr(driver, phase, fn)
    return levels[-1], result.records[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS))
    args = parser.parse_args()
    for name in args.workload:
        calls, record = phases(name)
        print(f"{name}: level {record.level}, {record.n_elems} elements, {record.ndofs} dofs; "
              f"traced MiB before / peak / after")
        for call, before, peak, after in calls:
            print(f"  {call:<28} {before / MIB:7.1f} {peak / MIB:7.1f} {after / MIB:7.1f}")
        call, _, peak, _ = max(calls, key=lambda c: c[2])
        print(f"  peak {peak / MIB:.1f} MiB in {call}")


if __name__ == "__main__":
    main()
