"""Benchmark runner: CSV emission, parameter sweeps, rate regression.

Each command line option is one entry of ``_OPTIONS``.  Its name is the
config file (INI) key, in the entry's section, and the ``AdaptiveParams``
field it sets; its flag is the name with '-' for '_'.  An unknown
section or key is an error, and flags override the file.  A run
parameter set nowhere takes its ``AdaptiveParams`` default.  A single
run with no ``tol``, ``max_cost`` or ``max_levels`` gets ``max_cost``
1e5; a sweep needs ``tol`` as its threshold and gets ``max_levels`` 60
when unset.  Exit codes: 0 on success, 2 when a sweep contains NaN
cells, 1 on error.
"""

import argparse
import configparser
import csv
import math
import sys
import traceback
from dataclasses import fields, replace

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
            names = ("level", "k", "j", "H", "Z", "HZ")
            diag = [(level, k, j, f"{h:.12e}", f"{z:.12e}", f"{h * z:.12e}")
                    for level, k, j, h, z in result.diagnostics]
            write_csv([dict(zip(names, row)) for row in diag], f"{out}.diag.csv", names)
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


def write_csv(rows, out, names=tuple(CSV_HEADER.split(","))):
    """Write row dicts under the header ``names`` (default: the run CSV's)."""
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
    for name in (x, y) if rows else ():
        if not any(name in row for row in rows):
            raise KeyError(f"no row has the column {name!r}")
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
                    deltas=None, out=None):
    """Weighted work estimatorProduct * cumWork^p over a parameter grid.

    Each cell runs ``params`` with its theta, delta, lambda_sym and
    lambda_alg (an axis given as None takes the value in ``params``) and
    with diagnostics off, whose direct solves would enter cumTime.  A cell
    scores ``weightedWork`` on the cost counter, which is deterministic,
    and reports the wall-clock ``weightedCost`` estimatorProduct *
    cumTime^p alongside.  A cell that misses ``params.tol``, hits a
    loop's iteration cap or takes a non-finite step is NaN in both and
    says why in ``reason``; any other error propagates.  Row and column
    minima of ``weightedWork`` are over lambda_sym and lambda_alg within
    each (theta, delta).
    """
    if params.tol is None:
        raise ValueError("a sweep needs params.tol as its threshold")
    spec = get_benchmark(problem_id)
    # every cell's params are built, and so checked, before the first run
    grid = [replace(params, theta=theta, delta=delta, lambda_sym=ls, lambda_alg=la,
                    diagnostics=False)
            for theta in ([params.theta] if thetas is None else thetas)
            for delta in ([params.delta] if deltas is None else deltas)
            for la in ([params.lambda_alg] if lambda_algs is None else lambda_algs)
            for ls in ([params.lambda_sym] if lambda_syms is None else lambda_syms)]
    cells = []
    for cell in grid:
        work = cost = float("nan")
        reason = "threshold not reached"
        try:
            rec = run(spec.problem, cell).records[-1]
            if rec.est_product <= params.tol:     # the stopping rule of ``run``
                work = rec.est_product * rec.cum_cost ** params.p
                cost = rec.est_product * rec.cum_time ** params.p
                reason = ""
        except IterationCapExceeded as exc:
            reason = str(exc)
        cells.append({"theta": cell.theta, "delta": cell.delta, "lambda_sym": cell.lambda_sym,
                      "lambda_alg": cell.lambda_alg, "weightedWork": work,
                      "weightedCost": cost, "reason": reason})

    for cell in cells:
        same = [c for c in cells if (c["theta"], c["delta"]) == (cell["theta"], cell["delta"])
                and not math.isnan(c["weightedWork"])]
        same_row = [c["weightedWork"] for c in same if c["lambda_alg"] == cell["lambda_alg"]]
        same_col = [c["weightedWork"] for c in same if c["lambda_sym"] == cell["lambda_sym"]]
        w = cell["weightedWork"]
        cell["rowMin"] = int(bool(same_row) and not math.isnan(w) and w <= min(same_row))
        cell["colMin"] = int(bool(same_col) and not math.isnan(w) and w <= min(same_col))

    if out is not None:
        write_csv(cells, out, ("theta", "delta", "lambda_sym", "lambda_alg", "weightedWork",
                               "weightedCost", "rowMin", "colMin", "reason"))
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
        if key not in ("theta", "delta", "lambda-sym", "lambda-alg"):
            raise ValueError(f"unknown sweep key {key!r}")
        values = [float(v) for v in vals.split(",") if v.strip()]
        if not values:
            raise ValueError(f"sweep axis {key!r} lists no values")
        axis = key.replace("-", "_") + "s"
        if axis in grid:
            raise ValueError(f"sweep axis {key!r} is given twice")
        grid[axis] = values
    return grid


# name -> (INI section, None for a flag only; type; help).  The name is
# the INI key and, for a run parameter, the AdaptiveParams field.
_OPTIONS = {
    "problem": ("run", str, "benchmark (default goal-singularity)"),
    "p": ("run", int, "polynomial degree"),
    "theta": ("adaptive", float, "Doerfler marking parameter in (0, 1]"),
    "delta": ("zarantonello", float, "Zarantonello damping parameter"),
    "lambda_sym": ("adaptive", float, "symmetrization stopping parameter"),
    "lambda_alg": ("adaptive", float, "algebraic solver stopping parameter"),
    "tol": ("run", float, "estimator-product stopping threshold; a sweep's threshold"),
    "max_cost": ("run", float, "cumulative cost bound"),
    "max_levels": ("run", int, "last level index"),
    "out": ("run", str, "output CSV path"),
    "diagnostics": ("run", bool, "write the quasi-error protocol to <out>.diag.csv"),
    "reference_goal": (None, bool, "report a direct-solve goal value on a one-level-finer "
                                   "uniform refinement (trend reference, not truth)"),
    "sweep": (None, str, "grid over theta, delta, lambda-sym and lambda-alg, e.g. "
                         "'theta=0.3,0.5;delta=0.5;lambda-sym=0.5,0.7;lambda-alg=0.7'"),
}


def _load_config(path):
    """Options from an INI file; an unknown section or key is a ValueError."""
    # no default section: a [DEFAULT] key would be copied into every section
    cfg = configparser.ConfigParser(default_section="")
    with open(path) as fh:
        cfg.read_file(fh)
    out = {}
    for name in cfg.sections():
        if name not in {section for section, _, _ in _OPTIONS.values()} - {None}:
            raise ValueError(f"{path}: unknown config section [{name}]")
        sec = cfg[name]
        for key in sec:
            section, kind, _ = _OPTIONS.get(key, (None, None, None))
            if section != name:
                raise ValueError(f"{path}: unknown config key {key!r} in section [{name}]")
            out[key] = sec.getboolean(key) if kind is bool else kind(sec[key])
    return out


def build_parser():
    ap = argparse.ArgumentParser(prog="goafem",
                                 description="Goal-oriented adaptive FEM benchmarks")
    ap.add_argument("--config", help="INI config file; flags override it")
    for name, (_, kind, text) in _OPTIONS.items():
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            ap.add_argument(flag, action="store_true", default=None, help=text)
        else:
            ap.add_argument(flag, type=kind, help=text,
                            choices=BENCHMARKS if name == "problem" else None)
    return ap


def main(argv=None):
    ns = build_parser().parse_args(argv)
    try:
        opts = _load_config(ns.config) if ns.config else {}
        opts.update((k, getattr(ns, k)) for k in _OPTIONS if getattr(ns, k) is not None)
        set_params = {f.name: opts[f.name] for f in fields(AdaptiveParams) if f.name in opts}
        if opts.get("sweep"):
            # each cell runs with diagnostics off and reports no goal value
            for name in ("reference_goal", "diagnostics"):
                if opts.get(name):
                    raise ValueError(f"--{name.replace('_', '-')} has no effect on a sweep")
            set_params.setdefault("max_levels", 60)
        elif not set_params.keys() & {"tol", "max_cost", "max_levels"}:
            set_params["max_cost"] = 1e5
        params = AdaptiveParams(**set_params)
        problem = opts.get("problem", "goal-singularity")
        if opts.get("sweep"):
            cells = parameter_sweep(problem, params, **_parse_sweep(opts["sweep"]),
                                    out=opts.get("out"))
            for c in cells:
                print(f"theta={c['theta']} delta={c['delta']} lambda_sym={c['lambda_sym']} "
                      f"lambda_alg={c['lambda_alg']} weightedWork={c['weightedWork']:.6e} "
                      f"weightedCost={c['weightedCost']:.6e}"
                      f"{' [row-min]' if c['rowMin'] else ''}"
                      f"{' [col-min]' if c['colMin'] else ''}"
                      f"{' (' + c['reason'] + ')' if c['reason'] else ''}")
            return 2 if any(math.isnan(c["weightedWork"]) for c in cells) else 0

        spec = get_benchmark(problem)
        result, rows = run_benchmark(spec, params, out=opts.get("out"))
        rec = result.records[-1]
        print(f"{problem}: {len(result.records)} levels, "
              f"ndofs {rec.ndofs}, estimator product {rec.est_product:.6e}, "
              f"cumulative cost {rec.cum_cost:.4e}")
        if spec.exact_goal is not None:
            print(f"goal value {rec.goal:.10f} (error {abs(rec.goal - spec.exact_goal):.3e})")
        if opts.get("reference_goal"):
            ref = reference_goal(spec, result.hierarchy.finest, params.p)
            print(f"reference goal value {ref:.10f} "
                  f"(direct solve on uniform refinement; reference, not truth)")
        return 0
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
