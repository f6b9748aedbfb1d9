"""Workload table, CSV row formatting and the reference check.

A workload is one deterministic adaptive run: a bundled problem, the
polynomial degree, the solver parameters and the estimator-product
tolerance that ends the run.  The rows are the convergence CSV of the
``goafem`` command line without its ``cumTime`` column, formatted the
same way, so that two runs can be compared byte for byte.
"""

import csv
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# the tolerance of each workload sits between the estimator products of
# two consecutive levels, so rounding noise cannot move the last level;
# max_levels only stops a run that would otherwise never reach it
WORKLOADS = {
    "singularity-p1": {
        "problem": "goal-singularity",
        "params": {"p": 1, "tol": 5.5e-5, "max_levels": 40},
    },
    "zshape-p3": {
        "problem": "zshape-convection",
        "params": {"p": 3, "tol": 9e-4, "max_levels": 40},
    },
    "singularity-p1-tight": {
        "problem": "goal-singularity",
        "params": {"p": 1, "lambda_alg": 0.01, "lambda_sym": 0.01, "tol": 1.8e-4,
                   "max_levels": 40},
    },
}

COLUMNS = ("ndofs", "nElems", "primalEstimator", "dualEstimator", "estimatorProduct",
           "goalValue", "goalError", "cumWork", "stepsPrimal", "stepsDual")
INT_COLUMNS = ("ndofs", "nElems", "stepsPrimal", "stepsDual")
REL_TOL = 1e-12


def format_rows(records, exact_goal):
    """CSV rows (lists of strings) of the driver history, without cumTime."""
    rows = []
    for r in records:
        err = "" if exact_goal is None else f"{abs(r.goal - exact_goal):.12e}"
        rows.append([str(r.ndofs), str(r.n_elems), f"{r.eta:.12e}", f"{r.zeta:.12e}",
                     f"{r.est_product:.12e}", f"{r.goal:.12e}", err, f"{r.cum_cost:.12e}",
                     str(r.steps_primal), str(r.steps_dual)])
    return rows


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.csv"


def write_reference(workload, rows):
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(reference_path(workload), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COLUMNS)
        writer.writerows(rows)


def read_reference(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != COLUMNS:
            raise ValueError(f"{path}: header {header} is not {COLUMNS}")
        return [row for row in reader]


def _cell_matches(column, got, want, scale):
    if column in INT_COLUMNS or want == "" or got == "":
        return got == want
    return abs(float(got) - float(want)) <= REL_TOL * max(abs(float(got)), abs(float(want)),
                                                           scale)


def mismatches(rows, reference):
    """Human-readable differences of ``rows`` from ``reference``.

    Integer columns must match exactly, float columns within 1e-12
    relative.  goalError = |goalValue - exact goal| cancels most digits
    of goalValue, so its tolerance is 1e-12 of goalValue: summation-order
    noise in goalValue (a different BLAS thread count moves it by about
    1e-16 relative) passes, any larger change fails.  An empty list means
    the run reproduced the reference.
    """
    out = []
    if len(rows) != len(reference):
        out.append(f"{len(rows)} levels, reference has {len(reference)}")
    for level, (got, want) in enumerate(zip(rows, reference)):
        goal = abs(float(want[COLUMNS.index("goalValue")]))
        for column, g, w in zip(COLUMNS, got, want):
            if not _cell_matches(column, g, w, goal if column == "goalError" else 0.0):
                out.append(f"level {level} {column}: {g!r} != reference {w!r}")
    return out
