"""goafem benchmark: time to a stated estimator tolerance, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --write-reference

Run from the root of a checkout; the package is imported from its
``src/``.  Load model: a closed loop with one client, one adaptive run
at a time, each in a fresh interpreter (``worker.py``), so import-time
work is never cached across samples.  The workloads are deterministic:
the seed is recorded but the inputs do not depend on it.

After one warm-up interpreter that only sets up, full runs follow each
other for ``--seconds`` seconds (at least three).  ``--trace 0`` prints
the end-to-end metrics as medians over the runs; the ``_ref_`` times are
scaled by each run's own start-up time (see ``BOOT_REF_S``).
``--trace 1`` makes every second run a traced one, with spans recorded
around the calls the driver makes into each layer (``tracer.py``), and
prints the per-layer metrics: medians over the traced runs, with the
tracing overhead measured against the untraced runs of the invocation.

Every full run is checked against the workload's reference CSV
(``reference/<workload>.csv``, every column except ``cumTime``, written
by ``--write-reference``), and every run's rows must be byte-identical
to those of the first untraced run.  A run that raises or differs counts
as failed.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import check_nesting, layer_metrics  # noqa: E402
from workloads import WORKLOADS, mismatches, read_reference, reference_path, write_reference  # noqa: E402

END_TO_END = {
    "time_to_tol_ref_s": "s",
    "final_levels_ref_us_per_elem": "us",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "mesh.refine_s": "s",
    "mesh.refine_calls": "count",
    "mesh.elems_final": "count",
    "space.build_space_s": "s",
    "space.prolong_s": "s",
    "space.ndofs_final": "count",
    "assemble.assemble_s": "s",
    "assemble.nnz_final": "count",
    "assemble.energy_norm_s": "s",
    "assemble.energy_norm_calls": "count",
    "assemble.rss_growth_mib": "MiB",
    "multigrid.build_preconditioner_s": "s",
    "multigrid.psi_step_s": "s",
    "multigrid.psi_step_calls": "count",
    "multigrid.rss_growth_mib": "MiB",
    "estimator.geometry_s": "s",
    "estimator.workspace_s": "s",
    "estimator.indicators_s": "s",
    "estimator.indicators_calls": "count",
    "estimator.rss_growth_mib": "MiB",
    "zarantonello.rhs_s": "s",
    "zarantonello.rhs_calls": "count",
    "marking.mark_s": "s",
    "marking.marked_share": "ratio",
    "driver.solve_estimate_s": "s",
    "driver.solve_estimate_self_s": "s",
    "driver.level_self_s": "s",
    "driver.levels": "count",
    "driver.combined_steps": "count",
    "driver.cum_work": "count",
    "driver.setup_share": "ratio",
    "driver.rate_vs_work": "slope",
    "driver.rate_vs_time": "slope",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
MIN_FULL_RUNS = 3
# On a shared 2-vCPU cloud machine the CPU speed drifts by 10-30% over
# minutes, and a sample's start-up (the interpreter plus the numpy and
# scipy.sparse imports, no goafem code) slows with it.  The *_ref_*
# metrics scale each sample's times to a start-up of BOOT_REF_S seconds.
BOOT_REF_S = 0.5
SAMPLE_TIMEOUT_S = 170


def spawn(argv):
    """Run worker.py in a fresh interpreter; (spawn time, JSON result or
    None, error text)."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT,
                              capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return t_spawn, None, f"worker {argv} timed out after {SAMPLE_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return t_spawn, json.loads(lines[-1]), ""
        except ValueError:
            pass
    return t_spawn, None, f"worker {argv} exited {proc.returncode}:\n{proc.stderr}"


def final_levels_us_per_elem(sample, levels=3):
    """Wall time of the last ``levels`` levels per element of their
    meshes, in microseconds: the cost constant of the asymptotic regime.
    A level's time runs from the row before it, so it includes marking
    and refining the mesh it starts from."""
    cum = sample["cum_time"]
    n_elems = sum(int(row[1]) for row in sample["rows"][-levels:])
    return (cum[-1] - cum[-levels - 1]) / n_elems * 1e6


def run_metrics(sample):
    """Counts and slopes every full run reports, traced or not."""
    last = sample["rows"][-1]
    return {
        "mesh.elems_final": int(last[1]),
        "space.ndofs_final": int(last[0]),
        "driver.levels": len(sample["rows"]),
        "driver.combined_steps": sample["steps_combined"],
        "driver.cum_work": float(last[7]),
        "driver.rate_vs_work": sample["rate_vs_work"],
    }


def end_to_end(untraced):
    scale = [BOOT_REF_S / s["boot_s"] for s in untraced]
    return {
        "time_to_tol_ref_s": statistics.median(s["wall_s"] * k for s, k in zip(untraced, scale)),
        "final_levels_ref_us_per_elem": statistics.median(
            final_levels_us_per_elem(s) * k for s, k in zip(untraced, scale)),
        "setup_s": statistics.median(s["setup_s"] for s in untraced),
        "peak_rss_mib": statistics.median(s["peak_rss_kib"] / 1024.0 for s in untraced),
    }


def per_layer(untraced, traced):
    """Medians over the traced runs; the time slope and the overhead
    baseline come from the untraced runs of the same invocation."""
    layered = [{**s["layers"], **run_metrics(s)} for s in traced]
    out = {name: statistics.median_low(m[name] for m in layered) if PER_LAYER[name] == "count"
           else statistics.median(m[name] for m in layered) for name in layered[0]}
    out["driver.rate_vs_time"] = statistics.median(s["rate_vs_time"] for s in untraced)
    out["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                               - statistics.median(s["wall_s"] for s in untraced))
    return out


def spread(values):
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g} q3 {q3:.6g} n={len(values)}"


def measure(workload, seed, seconds, trace, reference):
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    _, warm, err = spawn(["--workload", workload, "--setup-only"])
    if warm is None:
        raise RuntimeError(err)
    print("environment:", json.dumps(warm["env"]))

    untraced, traced, problems = [], [], []
    attempted = 0
    baseline_rows = None
    t_begin = time.monotonic()
    while True:
        enough = len(untraced) >= MIN_FULL_RUNS and (not trace or traced)
        if enough and time.monotonic() - t_begin >= seconds:
            break
        if not enough and attempted >= 4 * MIN_FULL_RUNS:
            break                                  # runs keep failing; stop early
        traced_run = trace and attempted % 2 == 1
        argv = ["--workload", workload]
        if traced_run:
            run_id = f"{workload}-seed{seed}-{attempted}"
            spans_path = out_dir / f"{run_id}.spans.jsonl"
            argv += ["--spans", str(spans_path)]
        attempted += 1
        t_spawn, sample, err = spawn(argv)
        if sample is None:
            problems.append(err)
            continue
        diff = mismatches(sample["rows"], reference)
        if baseline_rows is not None and sample["rows"] != baseline_rows:
            diff.append("rows are not byte-identical to the first untraced run")
        if traced_run:
            spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
            try:
                check_nesting(spans)
            except ValueError as exc:
                diff.append(f"spans: {exc}")
            else:
                sample["layers"] = layer_metrics(spans)
                levels = sum(s["t1"] - s["t0"] for s in spans if s["name"] == "level")
                print(f"traced run {run_id}: {len(spans)} spans, level spans cover "
                      f"{levels / sample['layers']['trace.wall_s']:.4f} of the run span; "
                      f"names not found in goafem.driver: {sample['not_traced']}")
        if diff:
            problems.append(f"run {attempted}: " + "; ".join(diff[:5]))
            continue
        if not traced_run:
            sample["boot_s"] = sample["t_boot"] - t_spawn
            sample["setup_s"] = sample["t_ready"] - t_spawn
            baseline_rows = baseline_rows or sample["rows"]
            untraced.append(sample)
        else:
            traced.append(sample)
    return attempted, untraced, traced, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "goafem" / "__init__.py").is_file():
        print(f"error: no goafem package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.write_reference:
        _, sample, err = spawn(["--workload", args.workload])
        if sample is None:
            print(err, file=sys.stderr)
            return 1
        write_reference(args.workload, sample["rows"])
        print(f"wrote {reference_path(args.workload)} ({len(sample['rows'])} levels)")
        return 0
    reference = read_reference(reference_path(args.workload))

    print(f"workload {args.workload}, seed {args.seed} (inputs do not depend on it), "
          f"{args.seconds:g} s, trace {args.trace}, {WORKLOADS[args.workload]}")
    attempted, untraced, traced, problems = measure(
        args.workload, args.seed, args.seconds, args.trace, reference)
    for problem in problems:
        print("FAILED", problem, file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print("error: no successful run to measure", file=sys.stderr)
        return 1

    walls = [s["wall_s"] for s in untraced]
    print(f"untraced wall time to tolerance: {spread(walls)}; start-up: "
          f"{spread([s['boot_s'] for s in untraced])}; set-up: "
          f"{spread([s['setup_s'] for s in untraced])}")
    if args.trace:
        values, units = per_layer(untraced, traced), PER_LAYER
        wall = values["trace.wall_s"]
        print(f"traced wall {spread([s['wall_s'] for s in traced])}; shares of traced wall: "
              f"build_preconditioner {values['multigrid.build_preconditioner_s'] / wall:.3f}, "
              f"solve_estimate {values['driver.solve_estimate_s'] / wall:.3f}, "
              f"assemble {values['assemble.assemble_s'] / wall:.3f}, "
              f"estimator geometry {values['estimator.geometry_s'] / wall:.3f}")
    else:
        values, units = end_to_end(untraced), END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": int(values[name]) if unit == "count" else values[name],
                           "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
