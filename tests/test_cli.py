import csv
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import goafem as gf
from goafem.cli import (CSV_HEADER, main, parameter_sweep, rate_regression,
                        read_csv, run_benchmark, write_csv)


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory, bench1):
    out = tmp_path_factory.mktemp("csv") / "bench1.csv"
    params = gf.AdaptiveParams(p=1, max_cost=3e3)
    result, rows = run_benchmark(bench1, params, out=str(out))
    return out, result, rows


def test_csv_header_exact(small_csv):
    out, _, _ = small_csv
    first = out.read_text().splitlines()[0]
    assert first == CSV_HEADER
    assert CSV_HEADER == ("ndofs,nElems,primalEstimator,dualEstimator,"
                          "estimatorProduct,goalValue,goalError,cumWork,cumTime,"
                          "stepsPrimal,stepsDual")


def test_csv_rows_match_records(small_csv):
    out, result, rows = small_csv
    back = read_csv(str(out))
    assert len(back) == len(result.records)
    for row, rec in zip(back, result.records):
        assert int(row["ndofs"]) == rec.ndofs
        assert int(row["nElems"]) == rec.n_elems
        assert float(row["estimatorProduct"]) == pytest.approx(rec.est_product, rel=1e-10)
        assert np.isfinite(float(row["cumWork"]))


def test_goal_error_consistency(small_csv, bench1):
    _, _, rows = small_csv
    for row in rows:
        err = float(row["goalError"])
        val = float(row["goalValue"])
        assert err == pytest.approx(abs(val - bench1.exact_goal), rel=1e-10, abs=1e-15)


def test_problem2_goal_error_empty(tmp_path, bench2):
    out = tmp_path / "bench2.csv"
    params = gf.AdaptiveParams(p=1, max_cost=2e3)
    _, rows = run_benchmark(bench2, params, out=str(out))
    assert all(row["goalError"] == "" for row in rows)
    back = read_csv(str(out))
    assert all(row["goalError"] == "" for row in back)


def test_deterministic_rerun(bench1):
    params = gf.AdaptiveParams(p=1, max_cost=3e3)
    _, rows_a = run_benchmark(bench1, params)
    _, rows_b = run_benchmark(bench1, params)
    assert len(rows_a) == len(rows_b)
    for a, b in zip(rows_a, rows_b):
        assert a["ndofs"] == b["ndofs"]
        assert a["nElems"] == b["nElems"]
        for col in ("primalEstimator", "dualEstimator", "estimatorProduct",
                    "goalValue", "cumWork"):
            fa, fb = float(a[col]), float(b[col])
            assert fa == pytest.approx(fb, rel=1e-10)


def test_rate_regression_exact_power_law():
    x = np.geomspace(1.0, 1e4, 30)
    rows = [{"x": f"{xi}", "y": f"{xi ** -1.0}"} for xi in x]
    slope = rate_regression(rows, "y", "x")
    assert slope == pytest.approx(-1.0, abs=1e-9)


def test_rate_regression_noisy_power_law():
    rng = np.random.default_rng(12)
    x = np.geomspace(1.0, 1e5, 60)
    y = 7.3 * x ** -2.0 * np.exp(rng.normal(0.0, 0.01, x.size))
    rows = [{"x": str(a), "y": str(b)} for a, b in zip(x, y)]
    slope = rate_regression(rows, "y", "x")
    assert slope == pytest.approx(-2.0, abs=0.05)


def test_rate_regression_window_and_errors():
    rows = [{"x": str(float(i + 1)), "y": str(1.0 / (i + 1))} for i in range(8)]
    assert rate_regression(rows, "y", "x", window=0.99) == pytest.approx(-1.0, abs=1e-9)
    with pytest.raises(ValueError):
        rate_regression(rows[:6], "y", "x", window=0.5)
    # an empty cell is a row without data; a column no row has is named
    assert rate_regression(rows + [{"x": "9.0", "y": ""}], "y", "x",
                           window=0.99) == pytest.approx(-1.0, abs=1e-9)
    with pytest.raises(KeyError, match="estimatorproduct"):
        rate_regression(rows, "estimatorproduct", "x")
    # a table without rows has too few points, not a missing column
    with pytest.raises(ValueError, match="at least 5 points"):
        rate_regression([], "y", "x")


@pytest.mark.parametrize("window", [0.0, 1.5])
def test_rate_regression_rejects_a_window_outside_0_1(window):
    # a window above 1 used to slice from the wrong end of the rows
    rows = [{"x": str(float(i + 1)), "y": str(1.0 / (i + 1))} for i in range(10)]
    with pytest.raises(ValueError, match=r"window must lie in \(0, 1\]"):
        rate_regression(rows, "y", "x", window=window)


def test_rate_regression_from_file(small_csv):
    out, _, _ = small_csv
    slope = rate_regression(str(out), "estimatorProduct", "cumWork")
    assert slope < -0.3


def test_sweep_single_cell(tmp_path):
    out = tmp_path / "sweep.csv"
    params = gf.AdaptiveParams(p=1, tol=5e-3, max_levels=60)
    cells = parameter_sweep("goal-singularity", params, [0.5], [0.7], [0.7], out=str(out))
    assert len(cells) == 1
    assert not math.isnan(cells[0]["weightedCost"])
    assert cells[0]["rowMin"] == 1 and cells[0]["colMin"] == 1
    assert read_csv(str(out))[0]["reason"] == ""


def test_sweep_unreachable_threshold_nan():
    params = gf.AdaptiveParams(p=1, tol=1e-30, max_levels=2)
    cells = parameter_sweep("goal-singularity", params, [0.5], [0.7], [0.7])
    assert math.isnan(cells[0]["weightedCost"])
    assert cells[0]["reason"] == "threshold not reached"


def test_sweep_records_only_iteration_caps(monkeypatch):
    from goafem import cli
    from goafem.driver import IterationCapExceeded

    def capped(problem, params):
        raise IterationCapExceeded("cap")

    params = gf.AdaptiveParams(p=1, tol=1e-3, max_levels=60)
    monkeypatch.setattr(cli, "run", capped)
    cells = parameter_sweep("goal-singularity", params, [0.5], [0.7], [0.7])
    assert math.isnan(cells[0]["weightedCost"])
    assert cells[0]["reason"] == "cap"

    def broken(problem, params):
        raise ValueError("bug")

    monkeypatch.setattr(cli, "run", broken)
    with pytest.raises(ValueError, match="bug"):
        parameter_sweep("goal-singularity", params, [0.5], [0.7], [0.7])


def test_sweep_cells_run_the_callers_params(monkeypatch):
    # a cell runs the caller's params with its grid values and diagnostics
    # off, so p = 1 stays p = 1; an axis left None takes the params' value
    from goafem import cli

    seen = []

    def fake_run(problem, params):
        seen.append(params)
        return SimpleNamespace(records=[SimpleNamespace(est_product=1e-4, cum_time=2.0)])

    params = gf.AdaptiveParams(theta=0.4, delta=0.3, lambda_sym=0.6, lambda_alg=0.2, p=1,
                               tol=1e-3, max_cost=5e3, max_levels=7, diagnostics=True)
    monkeypatch.setattr(cli, "run", fake_run)
    cells = parameter_sweep("goal-singularity", params, lambda_syms=[0.5, 0.7])
    assert seen == [replace(params, theta=0.4, lambda_sym=ls, lambda_alg=0.2,
                            diagnostics=False) for ls in (0.5, 0.7)]
    # the weighted cost takes the exponent p = 1 of the params
    assert [c["weightedCost"] for c in cells] == [1e-4 * 2.0] * 2


def test_sweep_lambda_cost_ordering():
    """Small solver parameters force more solver iterations: the
    (0.1, 0.1) run spends at least 1.2x the cumulative cost of the
    (0.7, 0.7) run to reach the same estimator-product threshold.

    (The wall-clock-weighted table entries do not discriminate at desk
    scale, where per-level overhead dominates the per-step cost, so the
    ordering is asserted on the machine-independent cost counter.)
    """
    costs = {}
    steps = {}
    for lam in (0.1, 0.7):
        params = gf.AdaptiveParams(theta=0.5, p=2, lambda_sym=lam, lambda_alg=lam,
                                   tol=2e-5, max_levels=60)
        res = gf.run(gf.get_benchmark("goal-singularity").problem, params)
        costs[lam] = res.records[-1].cum_cost
        steps[lam] = sum(r.steps_combined for r in res.records)
    assert costs[0.1] >= 1.2 * costs[0.7]
    assert steps[0.1] >= 1.2 * steps[0.7]


def test_main_single_run(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["--problem", "goal-singularity", "--p", "1",
                 "--max-cost", "2000", "--out", str(out)])
    assert code == 0
    assert out.exists()
    printed = capsys.readouterr().out
    assert "goal value" in printed


def test_main_config_and_overrides(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[run]\n"
        "problem = goal-singularity\n"
        "p = 1\n"
        "max_cost = 1500\n"
        "[adaptive]\n"
        "theta = 0.4\n"
        "lambda_sym = 0.6\n"
        "lambda_alg = 0.6\n"
        "[zarantonello]\n"
        "delta = 0.5\n"
    )
    out = tmp_path / "cfg.csv"
    code = main(["--config", str(cfg), "--out", str(out)])
    assert code == 0
    rows_cfg = read_csv(str(out))
    # overriding theta changes the refinement pattern
    out2 = tmp_path / "cfg2.csv"
    code = main(["--config", str(cfg), "--theta", "0.9", "--out", str(out2)])
    assert code == 0
    rows_override = read_csv(str(out2))
    ndofs_cfg = [r["ndofs"] for r in rows_cfg]
    ndofs_ovr = [r["ndofs"] for r in rows_override]
    assert ndofs_cfg != ndofs_ovr


@pytest.mark.parametrize("text, name", [("[solver]\nkind = vcycle\n", "[solver]"),
                                        ("[adaptive]\nthetaa = 0.4\n", "'thetaa'"),
                                        ("[DEFAULT]\ntheta = 0.4\n", "[DEFAULT]")])
def test_main_rejects_unknown_config_entries(tmp_path, capsys, text, name):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nproblem = goal-singularity\nmax_cost = 1500\n" + text)
    assert main(["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "ValueError" in err and name in err


def test_main_sweep_exit_codes(tmp_path, capsys):
    code = main(["--sweep", "theta=0.5;lambda-sym=0.7;lambda-alg=0.7",
                 "--tol", "5e-3", "--p", "1"])
    assert code == 0
    code = main(["--sweep", "theta=0.5;lambda-sym=0.7;lambda-alg=0.7",
                 "--tol", "1e-30", "--max-levels", "2", "--p", "1"])
    assert code == 2
    assert capsys.readouterr().out.rstrip().endswith("(threshold not reached)")


def test_main_sweep_passes_max_levels_zero(monkeypatch):
    # --max-levels 0 is a level cap like any other; 60 is only the default
    from goafem import cli

    caps = []

    def sweep(problem, params, **kwargs):
        caps.append(params.max_levels)
        return []

    monkeypatch.setattr(cli, "parameter_sweep", sweep)
    argv = ["--sweep", "theta=0.5;lambda-sym=0.7;lambda-alg=0.7", "--tol", "1e-3"]
    assert main(argv + ["--max-levels", "0"]) == 0
    assert main(argv) == 0
    assert caps == [0, 60]


def test_main_sweep_takes_unlisted_axes_from_the_run(monkeypatch, tmp_path):
    # an axis the sweep string does not list takes the run's value, from
    # a flag, the config file or the AdaptiveParams default
    from goafem import cli

    grids = []

    def sweep(problem, params, thetas=None, lambda_syms=None, lambda_algs=None, out=None):
        # an axis the sweep string does not list reaches the sweep as None
        # and takes its value from the params
        grids.append((thetas or [params.theta], lambda_syms or [params.lambda_sym],
                      lambda_algs or [params.lambda_alg]))
        return []

    monkeypatch.setattr(cli, "parameter_sweep", sweep)
    assert main(["--sweep", "theta=0.3", "--lambda-sym", "0.2", "--lambda-alg", "0.1"]) == 0
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("[adaptive]\ntheta = 0.4\nlambda_alg = 0.15\n")
    assert main(["--config", str(cfg), "--sweep", "lambda-sym=0.5,0.6"]) == 0
    assert main(["--sweep", "lambda-alg=0.3"]) == 0
    assert grids == [([0.3], [0.2], [0.1]), ([0.4], [0.5, 0.6], [0.15]),
                     ([gf.AdaptiveParams.theta], [gf.AdaptiveParams.lambda_sym], [0.3])]


@pytest.mark.parametrize("argv, message", [
    (["--sweep", "theta=;lambda-sym=0.7", "--tol", "1e-3"], "sweep axis 'theta' lists no values"),
    # a repeated axis would keep only its last values
    (["--sweep", "lambda_sym=0.7;lambda-sym=0.5", "--tol", "1e-3"],
     "sweep axis 'lambda-sym' is given twice"),
    # without the level cap, tol = nan would refine until memory runs out
    (["--tol", "nan", "--max-levels", "0"], "tol and max_cost"),
], ids=["empty-sweep-axis", "repeated-sweep-axis", "nan-tol"])
def test_main_rejects_inputs_that_cannot_work(capsys, argv, message):
    assert main(argv) == 1
    assert message in capsys.readouterr().err


def test_main_error_exit_code():
    assert main(["--config", "/nonexistent/path.ini"]) == 1


def test_main_error_prints_traceback(capsys):
    assert main(["--config", "/nonexistent/path.ini"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert "FileNotFoundError" in err and "/nonexistent/path.ini" in err


def test_write_read_roundtrip(tmp_path, bench1):
    params = gf.AdaptiveParams(p=1, max_levels=3)
    result, rows = run_benchmark(bench1, params)
    out = tmp_path / "r.csv"
    write_csv(rows, str(out))
    with open(out, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert parsed == [{k: str(v) for k, v in row.items()} for row in rows]


def test_diagnostics_csv(tmp_path, bench1):
    out = tmp_path / "diag_run.csv"
    params = gf.AdaptiveParams(p=1, max_cost=1500, diagnostics=True)
    result, _ = run_benchmark(bench1, params, out=str(out))
    diag_path = tmp_path / "diag_run.csv.diag.csv"
    assert diag_path.exists()
    rows = read_csv(str(diag_path))
    assert len(rows) == len(result.diagnostics)
    assert all(float(r["HZ"]) > 0 for r in rows)
    # the cost counter is unaffected by diagnostics
    params_plain = gf.AdaptiveParams(p=1, max_cost=1500)
    plain, _ = run_benchmark(bench1, params_plain)
    assert plain.records[-1].cum_cost == result.records[-1].cum_cost


def test_reference_goal_flag(capsys, bench2):
    code = main(["--problem", "zshape-convection", "--p", "1",
                 "--max-cost", "1500", "--reference-goal"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "reference goal value" in printed


def test_reference_goal_value(bench2):
    from goafem.cli import reference_goal

    mesh = gf.uniform_refine(gf.initial_mesh("zshape"), 2)
    ref = reference_goal(bench2, mesh, 1)
    assert np.isfinite(ref)



def _recording_run(seen, est_product=1e-4, cum_time=2.0):
    def fake_run(problem, params):
        seen.append(params)
        return SimpleNamespace(records=[SimpleNamespace(est_product=est_product,
                                                        cum_time=cum_time)])
    return fake_run


def test_main_sweep_without_tol_runs_nothing(monkeypatch, capsys):
    # a sweep's threshold is its own tol: no cost budget, no made-up value
    from goafem import cli

    seen = []
    monkeypatch.setattr(cli, "run", _recording_run(seen))
    assert main(["--sweep", "theta=0.5"]) == 1
    assert "params.tol" in capsys.readouterr().err
    assert seen == []


@pytest.mark.parametrize("flag, ini", [("--reference-goal", None),
                                       ("--diagnostics", "[run]\ndiagnostics = yes\n")],
                         ids=["reference-goal", "diagnostics"])
def test_main_sweep_rejects_flags_it_would_ignore(monkeypatch, capsys, tmp_path, flag, ini):
    # a sweep reports one weighted cost per cell: a flag that changes
    # nothing there is an error, from the command line or the config file
    from goafem import cli

    seen = []
    monkeypatch.setattr(cli, "run", _recording_run(seen))
    argv = ["--sweep", "theta=0.5", "--tol", "1e-3"]
    assert main(argv + [flag]) == 1
    assert f"{flag} has no effect on a sweep" in capsys.readouterr().err
    if ini is not None:
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(ini)
        assert main(argv + ["--config", str(cfg)]) == 1
        assert f"{flag} has no effect on a sweep" in capsys.readouterr().err
    assert seen == []


def test_sweep_counts_a_cell_stopped_at_the_threshold(monkeypatch):
    # run stops on est_product <= tol, so a cell that stopped there counts
    from goafem import cli

    seen = []
    monkeypatch.setattr(cli, "run", _recording_run(seen, est_product=1e-3, cum_time=2.0))
    params = gf.AdaptiveParams(p=2, tol=1e-3, max_levels=60)
    cells = parameter_sweep("goal-singularity", params, [0.5], [0.7], [0.7])
    assert cells[0]["weightedCost"] == 1e-3 * 2.0 ** 2
    assert cells[0]["reason"] == ""


def test_sweep_rejects_an_invalid_cell_before_any_run(monkeypatch):
    from goafem import cli

    seen = []
    monkeypatch.setattr(cli, "run", _recording_run(seen))
    params = gf.AdaptiveParams(p=1, tol=1e-3, max_levels=60)
    with pytest.raises(ValueError, match=r"theta must lie in \(0, 1\]"):
        parameter_sweep("goal-singularity", params, thetas=[0.5, 1.5])
    assert seen == []


def _captured_run(monkeypatch, argv):
    from goafem import cli

    calls = []

    def fake_benchmark(spec, params, out=None):
        calls.append((spec.problem_id, params, out))
        rec = SimpleNamespace(ndofs=1, est_product=1.0, cum_cost=1.0, goal=0.0)
        return SimpleNamespace(records=[rec]), []

    monkeypatch.setattr(cli, "run_benchmark", fake_benchmark)
    assert main(argv) == 0
    return calls[0]


def test_flags_and_config_keys_set_the_same_run(monkeypatch, tmp_path):
    flags = _captured_run(monkeypatch, [
        "--problem", "zshape-convection", "--out", "x.csv", "--p", "2", "--theta", "0.4",
        "--delta", "0.3", "--lambda-sym", "0.6", "--lambda-alg", "0.2", "--tol", "1e-3",
        "--max-cost", "5e3", "--max-levels", "7", "--diagnostics"])
    cfg = tmp_path / "all.ini"
    cfg.write_text("[run]\nproblem = zshape-convection\nout = x.csv\np = 2\ntol = 1e-3\n"
                   "max_cost = 5e3\nmax_levels = 7\ndiagnostics = yes\n"
                   "[adaptive]\ntheta = 0.4\nlambda_sym = 0.6\nlambda_alg = 0.2\n"
                   "[zarantonello]\ndelta = 0.3\n")
    ini = _captured_run(monkeypatch, ["--config", str(cfg)])
    expected = gf.AdaptiveParams(theta=0.4, delta=0.3, lambda_sym=0.6, lambda_alg=0.2, p=2,
                                 tol=1e-3, max_cost=5e3, max_levels=7, diagnostics=True)
    assert flags == ini == ("zshape-convection", expected, "x.csv")


def test_main_defaults_come_from_adaptive_params(monkeypatch):
    assert _captured_run(monkeypatch, []) == ("goal-singularity",
                                              gf.AdaptiveParams(max_cost=1e5), None)
