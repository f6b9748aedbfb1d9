"""Benchmark runner: CSV emission, parameter sweeps, rate regression.

Config file (INI) keys are the command line options with '_' for '-',
grouped in the sections of ``_CONFIG_KEYS``; an unknown section or key
is an error, and command line flags override the file.  Exit codes: 0
on success, 2 when a sweep contains NaN cells, 1 on error.
"""

import argparse
import configparser
import csv
import math
import sys
import traceback
from dataclasses import replace

import numpy as np

from .assemble import assemble, goal_value, solve_direct
from .benchmarks import BENCHMARKS, get_benchmark
from .driver import AdaptiveParams, IterationCapExceeded, run
from .mesh import uniform_refine
from .space import build_space

CSV_HEADER = ("ndofs,nElems,primalEstimator,dualEstimator,estimatorProduct,"
              "goalValue,goalError,cumWork,cumTime,stepsPrimal,stepsDual")


def records_to_rows(records, exact_goal=None):
    """CSV rows (list of dicts) from the driver history."""
    rows = []
    for r in records:
        err = "" if exact_goal is None else f"{abs(r.goal - exact_goal):.12e}"
        rows.append({
            "ndofs": r.ndofs,
            "nElems": r.n_elems,
            "primalEstimator": f"{r.eta:.12e}",
            "dualEstimator": f"{r.zeta:.12e}",
            "estimatorProduct": f"{r.est_product:.12e}",
            "goalValue": f"{r.goal:.12e}",
            "goalError": err,
            "cumWork": f"{r.cum_cost:.12e}",
            "cumTime": f"{r.cum_time:.6e}",
            "stepsPrimal": r.steps_primal,
            "stepsDual": r.steps_dual,
        })
    return rows


def run_benchmark(spec, params, out=None):
    """Run one benchmark and optionally write its convergence CSV.

    With diagnostics enabled and an output path, the per-step quasi-error
    protocol goes to ``<out>.diag.csv``.
    """
    result = run(spec.problem, params)
    rows = records_to_rows(result.records, spec.exact_goal)
    if out is not None:
        write_csv(rows, out)
        if params.diagnostics and result.diagnostics:
            with open(f"{out}.diag.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["level", "k", "j", "H", "Z", "HZ"])
                for level, k, j, h, z in result.diagnostics:
                    writer.writerow([level, k, j, f"{h:.12e}", f"{z:.12e}", f"{h * z:.12e}"])
    return result, rows


def reference_goal(spec, mesh, p):
    """Goal value from direct solves on a one-level-finer uniform
    refinement; a trend reference, not the exact value."""
    fine = uniform_refine(mesh)
    space = build_space(fine, p)
    system = assemble(space, spec.problem)
    u = solve_direct(system, "primal")
    z = solve_direct(system, "dual")
    return goal_value(system, u, z)


def write_csv(rows, out):
    names = CSV_HEADER.split(",")
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=names)
        writer.writeheader()
        writer.writerows(rows)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def rate_regression(rows, y, x, window=0.5):
    """Least-squares slope of log y against log x over the trailing rows.

    ``rows`` is a CSV path or a list of row dicts; ``window`` in (0, 1] is
    the trailing fraction of rows used (at least 5 points are required).
    """
    if not 0.0 < window <= 1.0:
        raise ValueError(f"window must lie in (0, 1], got {window}")
    if isinstance(rows, str):
        rows = read_csv(rows)
    xs, ys = [], []
    for row in rows:
        try:
            xv = float(row[x])
            yv = float(row[y])
        except (KeyError, TypeError, ValueError):
            continue
        if xv > 0.0 and yv > 0.0:
            xs.append(xv)
            ys.append(yv)
    n = len(xs)
    k = int(math.ceil(window * n))
    if k < 5:
        raise ValueError(f"rate regression needs at least 5 points in the window, got {k}")
    lx = np.log(np.asarray(xs[n - k:]))
    ly = np.log(np.asarray(ys[n - k:]))
    return float(np.polyfit(lx, ly, 1)[0])


def parameter_sweep(problem_id, params, thetas=None, lambda_syms=None, lambda_algs=None,
                    out=None):
    """Weighted cost estimatorProduct * cumTime^p over a parameter grid.

    Each cell runs ``params`` with its theta, lambda_sym and lambda_alg
    (an axis given as None takes the value in ``params``) and with
    diagnostics off, whose direct solves would enter cumTime.  A cell
    that misses ``params.tol`` or hits a loop's iteration cap is NaN and
    says why in ``reason``; any other error propagates.  Row and column
    minima are over lambda_sym and lambda_alg within each theta.
    """
    if params.tol is None:
        raise ValueError("a sweep needs params.tol as its threshold")
    spec = get_benchmark(problem_id)
    cells = []
    for theta in [params.theta] if thetas is None else thetas:
        for la in [params.lambda_alg] if lambda_algs is None else lambda_algs:
            for ls in [params.lambda_sym] if lambda_syms is None else lambda_syms:
                cell = replace(params, theta=theta, lambda_sym=ls, lambda_alg=la,
                               diagnostics=False)
                weighted = float("nan")
                reason = "threshold not reached"
                try:
                    rec = run(spec.problem, cell).records[-1]
                    if rec.est_product < params.tol:
                        weighted = rec.est_product * rec.cum_time ** params.p
                        reason = ""
                except IterationCapExceeded as exc:
                    reason = str(exc)
                cells.append({"theta": theta, "lambda_sym": ls, "lambda_alg": la,
                              "weightedCost": weighted, "reason": reason})

    for cell in cells:
        same_row = [c["weightedCost"] for c in cells
                    if c["theta"] == cell["theta"] and c["lambda_alg"] == cell["lambda_alg"]
                    and not math.isnan(c["weightedCost"])]
        same_col = [c["weightedCost"] for c in cells
                    if c["theta"] == cell["theta"] and c["lambda_sym"] == cell["lambda_sym"]
                    and not math.isnan(c["weightedCost"])]
        w = cell["weightedCost"]
        cell["rowMin"] = int(bool(same_row) and not math.isnan(w) and w <= min(same_row))
        cell["colMin"] = int(bool(same_col) and not math.isnan(w) and w <= min(same_col))

    if out is not None:
        names = ["theta", "lambda_sym", "lambda_alg", "weightedCost", "rowMin", "colMin",
                 "reason"]
        with open(out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=names)
            writer.writeheader()
            writer.writerows(cells)
    return cells


def _parse_sweep(text):
    """The axes the sweep text lists, as ``parameter_sweep`` keywords."""
    grid = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, _, vals = part.partition("=")
        key = key.strip().replace("_", "-")
        if key not in ("theta", "lambda-sym", "lambda-alg"):
            raise ValueError(f"unknown sweep key {key!r}")
        values = [float(v) for v in vals.split(",") if v.strip()]
        if not values:
            raise ValueError(f"sweep axis {key!r} lists no values")
        grid[key.replace("-", "_") + "s"] = values
    return grid


# INI section -> key -> type; the option name is the key with '-' for '_'
_CONFIG_KEYS = {
    "run": {"problem": str, "out": str, "p": int, "tol": float, "max_cost": float,
            "max_levels": int, "diagnostics": bool},
    "adaptive": {"theta": float, "lambda_sym": float, "lambda_alg": float},
    "zarantonello": {"delta": float},
}


def _load_config(path):
    """Options from an INI file; an unknown section or key is a ValueError."""
    # no default section: a [DEFAULT] key would be copied into every section
    cfg = configparser.ConfigParser(default_section="")
    with open(path) as fh:
        cfg.read_file(fh)
    out = {}
    for name in cfg.sections():
        if name not in _CONFIG_KEYS:
            raise ValueError(f"{path}: unknown config section [{name}]")
        sec = cfg[name]
        for key in sec:
            cast = _CONFIG_KEYS[name].get(key)
            if cast is None:
                raise ValueError(f"{path}: unknown config key {key!r} in section [{name}]")
            out[key.replace("_", "-")] = sec.getboolean(key) if cast is bool else cast(sec[key])
    return out


def build_parser():
    ap = argparse.ArgumentParser(prog="goafem",
                                 description="Goal-oriented adaptive FEM benchmarks")
    ap.add_argument("--config", help="INI config file; flags override it")
    ap.add_argument("--problem", choices=BENCHMARKS)
    ap.add_argument("--p", type=int)
    ap.add_argument("--theta", type=float)
    ap.add_argument("--delta", type=float)
    ap.add_argument("--lambda-sym", type=float)
    ap.add_argument("--lambda-alg", type=float)
    ap.add_argument("--tol", type=float, help="estimator-product stopping threshold")
    ap.add_argument("--max-cost", type=float, help="cumulative cost bound")
    ap.add_argument("--max-levels", type=int)
    ap.add_argument("--out", help="output CSV path")
    ap.add_argument("--diagnostics", action="store_true", default=None)
    ap.add_argument("--reference-goal", action="store_true", default=None,
                    help="report a direct-solve goal value on a one-level-finer "
                         "uniform refinement (trend reference, not truth)")
    ap.add_argument("--sweep", help="grid, e.g. 'theta=0.3,0.5;lambda-sym=0.5,0.7;lambda-alg=0.7'")
    return ap


_DEFAULTS = {
    "problem": "goal-singularity", "p": AdaptiveParams.p, "theta": AdaptiveParams.theta,
    "delta": AdaptiveParams.delta, "lambda-sym": AdaptiveParams.lambda_sym,
    "lambda-alg": AdaptiveParams.lambda_alg, "tol": None, "max-cost": None,
    "max-levels": None, "out": None, "diagnostics": False,
    "reference-goal": False, "sweep": None,
}


def main(argv=None):
    ap = build_parser()
    ns = ap.parse_args(argv)
    opts = dict(_DEFAULTS)
    try:
        if ns.config:
            opts.update(_load_config(ns.config))
        for key in _DEFAULTS:
            val = getattr(ns, key.replace("-", "_"), None)
            if val is not None:
                opts[key] = val

        if opts["tol"] is None and opts["max-cost"] is None and opts["max-levels"] is None:
            opts["max-cost"] = 1e5

        params = AdaptiveParams(
            theta=opts["theta"], delta=opts["delta"], lambda_sym=opts["lambda-sym"],
            lambda_alg=opts["lambda-alg"], p=opts["p"], tol=opts["tol"],
            max_cost=opts["max-cost"], max_levels=opts["max-levels"],
            diagnostics=opts["diagnostics"])
        if opts["sweep"]:
            params = replace(params, tol=1e-6 if params.tol is None else params.tol,
                             max_levels=60 if params.max_levels is None else params.max_levels)
            cells = parameter_sweep(opts["problem"], params, **_parse_sweep(opts["sweep"]),
                                    out=opts["out"])
            for c in cells:
                print(f"theta={c['theta']} lambda_sym={c['lambda_sym']} "
                      f"lambda_alg={c['lambda_alg']} weightedCost={c['weightedCost']:.6e}"
                      f"{' [row-min]' if c['rowMin'] else ''}"
                      f"{' [col-min]' if c['colMin'] else ''}"
                      f"{' (' + c['reason'] + ')' if c['reason'] else ''}")
            if any(math.isnan(c["weightedCost"]) for c in cells):
                return 2
            return 0

        spec = get_benchmark(opts["problem"])
        result, rows = run_benchmark(spec, params, out=opts["out"])
        rec = result.records[-1]
        print(f"{opts['problem']}: {len(result.records)} levels, "
              f"ndofs {rec.ndofs}, estimator product {rec.est_product:.6e}, "
              f"cumulative cost {rec.cum_cost:.4e}")
        if spec.exact_goal is not None:
            print(f"goal value {rec.goal:.10f} (error {abs(rec.goal - spec.exact_goal):.3e})")
        if opts["reference-goal"]:
            ref = reference_goal(spec, result.hierarchy.finest, opts["p"])
            print(f"reference goal value {ref:.10f} "
                  f"(direct solve on uniform refinement; reference, not truth)")
        return 0
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
