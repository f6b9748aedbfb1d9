"""Tests of the benchmark itself: spans, the reference check, metric names.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
from tracer import Tracer, check_nesting, layer_metrics  # noqa: E402
from workloads import (COLUMNS, WORKLOADS, format_rows, mismatches, read_reference,  # noqa: E402
                       reference_path)

import goafem  # noqa: E402
from goafem import driver  # noqa: E402


def _small_run(tracer=None):
    spec = goafem.get_benchmark("goal-singularity")
    params = goafem.AdaptiveParams(p=1, lambda_alg=0.1, lambda_sym=0.1, max_levels=8)
    if tracer is None:
        return format_rows(goafem.run(spec.problem, params).records, spec.exact_goal)
    tracer.install(driver)
    root = tracer.open("run", "driver")
    try:
        result = goafem.run(spec.problem, params)
    finally:
        tracer.close(root)
        tracer.uninstall()
    return format_rows(result.records, spec.exact_goal)


@pytest.fixture(scope="module")
def traced():
    tracer = Tracer("test-run")
    rows = _small_run(tracer)
    return tracer, rows


def test_spans_nest_and_cover_the_run(traced):
    tracer, rows = traced
    spans = tracer.spans
    check_nesting(spans)
    assert {s["run"] for s in spans} == {"test-run"}
    root = spans[0]
    levels = [s for s in spans if s["name"] == "level"]
    assert len(levels) == len(rows)
    assert all(s["parent"] == root["id"] for s in levels)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["name"] in ("psi_step", "zarantonello_rhs", "EstimatorWorkspace.indicators"):
            assert by_id[s["parent"]]["name"] == "solve_estimate"
    wall = root["t1"] - root["t0"]
    assert sum(s["t1"] - s["t0"] for s in levels) >= 0.9 * wall


def test_uninstall_restores_the_driver(traced):
    for name in ("build_space", "assemble", "solve_estimate", "refine"):
        assert not hasattr(getattr(driver, name), "__wrapped__")
    assert not hasattr(driver.EstimatorWorkspace.indicators, "__wrapped__")


def test_tracing_leaves_the_rows_byte_identical(traced):
    assert traced[1] == _small_run()


def test_layer_metrics_count_the_calls(traced):
    tracer, rows = traced
    m = layer_metrics(tracer.spans)
    assert m["mesh.refine_calls"] == len(rows) - 1
    assert m["assemble.nnz_final"] > 0
    assert m["zarantonello.rhs_calls"] >= 2 * len(rows)
    assert m["estimator.indicators_calls"] == m["multigrid.psi_step_calls"]
    assert 0.0 < m["marking.marked_share"] <= 1.0
    assert 0.0 < m["driver.setup_share"] < 1.0


def test_nesting_check_rejects_a_span_outside_its_parent(traced):
    spans = [dict(s) for s in traced[0].spans]
    child = next(s for s in spans if s["name"] == "assemble")
    child["t1"] = spans[0]["t1"] + 1.0
    with pytest.raises(ValueError, match="leaves its parent"):
        check_nesting(spans)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_accepts_itself_and_rejects_a_perturbation(workload):
    ref = read_reference(reference_path(workload))
    assert mismatches([list(r) for r in ref], ref) == []

    last = len(ref) - 1
    col = COLUMNS.index("estimatorProduct")
    value = float(ref[last][col])
    for factor, ok in ((1 + 1e-14, True), (1 + 1e-10, False)):
        rows = [list(r) for r in ref]
        rows[last][col] = f"{value * factor:.15e}"
        assert (mismatches(rows, ref) == []) is ok

    rows = [list(r) for r in ref]
    rows[last][COLUMNS.index("stepsDual")] = str(int(ref[last][COLUMNS.index("stepsDual")]) + 1)
    assert mismatches(rows, ref) != []
    assert mismatches(ref[:-1], ref) != []


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_metric_functions_produce_every_declared_name(traced):
    tracer, rows = traced
    sample = {"wall_s": 1.0, "boot_s": 0.4, "setup_s": 0.5, "peak_rss_kib": 2048, "rows": rows,
              "cum_time": [0.1 * (i + 1) for i in range(len(rows))], "steps_combined": 9, "rate_vs_work": -1.0, "rate_vs_time": -1.2,
              "layers": layer_metrics(tracer.spans)}
    assert set(bench.end_to_end([sample])) == set(bench.END_TO_END)
    assert set(bench.per_layer([sample], [sample])) == set(bench.PER_LAYER)


def test_install_skips_names_the_driver_does_not_import():
    class Driver:
        build_space = staticmethod(lambda *a: None)

    tracer = Tracer("partial")
    tracer.install(Driver)
    try:
        assert "assemble" in tracer.missing and "EstimatorWorkspace.indicators" in tracer.missing
        assert hasattr(Driver.build_space, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(Driver.build_space, "__wrapped__")
