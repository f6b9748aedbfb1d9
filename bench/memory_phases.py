"""Traced memory and peak RSS of each driver phase on the last level of a run.

    python3 bench/memory_phases.py [--workload NAME ...]

For each workload of ``perfbench/workloads.py`` this runs the adaptive
loop twice with the per-level calls of ``goafem.driver`` (``PHASES``)
wrapped.  The first run is made in this process, under ``tracemalloc``:
for every such call of the last level it prints the traced MiB before
the call, the peak during it and the MiB after it, and it names the
call that sets the level's traced peak.  The second run is made in a
fresh interpreter without ``tracemalloc``: after each call it prints
the process's peak resident set size (``ru_maxrss``), and it names the
last call that raised it, the one that sets the run's peak RSS, or says
that an earlier level set it.  A call made with "primal" or "dual" is
named with it.  Traced memory counts what Python and numpy allocate,
not the process's resident set, which also holds what the allocator
keeps after a free.  The numbers of the run do not change, but the
traced run is several times slower.  It reads ``perfbench/workloads.py``
and writes nothing.
"""

import argparse
import multiprocessing
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


def traced_meter():
    """Start measuring a call under ``tracemalloc``; the returned function
    gives the traced bytes before it, the peak during it and after it."""
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()

    def stop():
        after, peak = tracemalloc.get_traced_memory()
        return before, peak, after
    return stop


def rss_meter():
    """Start measuring a call by the process's peak RSS; the returned
    function gives it in bytes before the call and after it."""
    before = driver._peak_rss_kib() * 1024
    return lambda: (before, driver._peak_rss_kib() * 1024)


def phases(name, meter):
    """Run workload ``name``; per call of its last level, (call, *readings
    of ``meter``), and the level's record."""
    levels = []

    def wrap(phase, fn):
        def call(*args, **kwargs):
            if phase == "build_space":
                levels.append([])
            side = " ".join(a for a in args if isinstance(a, str) and a in ("primal", "dual"))
            stop = meter()
            try:
                return fn(*args, **kwargs)
            finally:
                levels[-1].append((f"{phase} {side}".strip(), *stop()))
        return call

    missing = [phase for phase in PHASES if not hasattr(driver, phase)]
    if missing:
        raise SystemExit(f"goafem.driver no longer calls {', '.join(missing)}")
    originals = {phase: getattr(driver, phase) for phase in PHASES}
    wl = WORKLOADS[name]
    problem = goafem.get_benchmark(wl["problem"]).problem
    try:
        for phase, fn in originals.items():
            setattr(driver, phase, wrap(phase, fn))
        result = goafem.run(problem, goafem.AdaptiveParams(**wl["params"]))
    finally:
        for phase, fn in originals.items():
            setattr(driver, phase, fn)
    return levels[-1], result.records[-1]


def traced_phases(name):
    tracemalloc.start()
    try:
        return phases(name, traced_meter)
    finally:
        tracemalloc.stop()


def rss_phases(name):
    return phases(name, rss_meter)[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS))
    args = parser.parse_args()
    # the untraced runs first, each in a fresh interpreter: ru_maxrss only
    # rises, and a process starts from the resident set of the one that
    # started it, which is small until the traced runs
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        untraced = pool.map(rss_phases, args.workload, chunksize=1)
    for name, rss in zip(args.workload, untraced):
        calls, record = traced_phases(name)
        if [call[0] for call in rss] != [call[0] for call in calls]:
            raise SystemExit(f"{name}: the untraced run made other calls")
        print(f"{name}: level {record.level}, {record.n_elems} elements, {record.ndofs} dofs; "
              f"traced MiB before / peak / after, peak RSS MiB after")
        for (call, before, peak, after), (_, _, rss_after) in zip(calls, rss):
            print(f"  {call:<28} {before / MIB:7.1f} {peak / MIB:7.1f} {after / MIB:7.1f} "
                  f"{rss_after / MIB:9.1f}")
        call, _, peak, _ = max(calls, key=lambda c: c[2])
        print(f"  peak {peak / MIB:.1f} MiB in {call}")
        raised = [call for call, rss_before, rss_after in rss if rss_after > rss_before]
        where = f"raised last in {raised[-1]}" if raised else "set before the last level"
        print(f"  peak RSS {rss[-1][2] / MIB:.1f} MiB, {where}")


if __name__ == "__main__":
    main()
