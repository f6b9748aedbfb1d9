"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The expensive adaptive runs are session fixtures shared with the
rest of the suite (see conftest.py): benchmark 1 at p=1 to cumulative
cost 4e5, benchmark 1 at p=2 to 2.5e5, benchmark 2 at p=1 to 1.5e5.
"""

import numpy as np
import pytest

import goafem as gf
from goafem.cli import rate_regression, records_to_rows
from goafem.problem import ProblemData

QRED = 2.0 ** (-0.25)


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status} - {detail}")
    assert ok, detail


def test_criterion_01_exact_goal_value(run_p1, bench1):
    records = run_p1.records
    assert records[-1].cum_cost >= 2e5
    final_err = abs(records[-1].goal - bench1.exact_goal)
    early = next(r for r in records if r.cum_cost >= 1e4)
    early_err = abs(early.goal - bench1.exact_goal)
    runtime = records[-1].cum_time
    ok = final_err <= 1e-4 and early_err <= 1e-2 and runtime <= 60.0
    _report(1, ok, f"goal error {final_err:.3e} <= 1e-4 at cost "
                   f"{records[-1].cum_cost:.2e}, {early_err:.3e} <= 1e-2 by cost 1e4, "
                   f"runtime {runtime:.1f}s <= 60s")


def test_criterion_02_optimal_rate_vs_cost(run_p1, run_p2, bench1):
    rows1 = records_to_rows(run_p1.records, bench1.exact_goal)
    slope1 = rate_regression(rows1, "estimatorProduct", "cumWork")
    rows2 = records_to_rows(run_p2.records, bench1.exact_goal)
    slope2 = rate_regression(rows2, "estimatorProduct", "cumWork")
    dofs1 = sum(r.ndofs * r.steps_combined for r in run_p1.records)
    dofs2 = sum(r.ndofs * r.steps_combined for r in run_p2.records)
    ok = (-1.25 <= slope1 <= -0.75 and -2.4 <= slope2 <= -1.6
          and dofs1 <= 1e6 and dofs2 <= 1e6)
    _report(2, ok, f"p=1 slope {slope1:.3f} in [-1.25,-0.75], "
                   f"p=2 slope {slope2:.3f} in [-2.4,-1.6] "
                   f"(cumulative dofs {dofs1:.2e}/{dofs2:.2e} <= 1e6)")


def test_criterion_03_rates_equal_complexity(run_p1, run_zshape, bench1, bench2):
    details = []
    ok = True
    for run, spec, name in ((run_p1, bench1, "bench1"), (run_zshape, bench2, "bench2")):
        rows = records_to_rows(run.records, spec.exact_goal)
        s_cost = rate_regression(rows, "estimatorProduct", "cumWork")
        s_elems = rate_regression(rows, "estimatorProduct", "nElems")
        ok = ok and abs(s_cost - s_elems) <= 0.2
        details.append(f"{name}: |{s_cost:.3f} - {s_elems:.3f}| = {abs(s_cost - s_elems):.3f}")
    _report(3, ok, "; ".join(details) + " (<= 0.2)")


def test_criterion_04_goal_error_estimator_band(run_p1, bench1):
    records = run_p1.records
    tail = records[len(records) // 2:]
    ratios = [abs(r.goal - bench1.exact_goal) / r.est_product for r in tail
              if r.est_product > 0 and abs(r.goal - bench1.exact_goal) > 0]
    band = max(ratios) / min(ratios)
    ok = band <= 50.0
    _report(4, ok, f"goalError/estimatorProduct band factor {band:.2f} <= 50 "
                   f"over trailing {len(tail)} levels")


def test_criterion_05_zarantonello_contraction(bench1, bench2):
    rng = np.random.default_rng(2024)
    worst = {}
    for spec, name in ((bench1, "bench1"), (bench2, "bench2")):
        mesh = gf.uniform_refine(gf.initial_mesh(spec.problem.domain), 4)
        space = gf.build_space(mesh, 1)
        system = gf.assemble(space, spec.problem)
        w_max = 0.0
        for _ in range(20):
            v = rng.standard_normal(system.n)
            w = rng.standard_normal(system.n)
            pv = gf.exact_phi(system, "primal", v, 0.5)
            pw = gf.exact_phi(system, "primal", w, 0.5)
            w_max = max(w_max, gf.energy_norm(system, pv.values - pw.values)
                        / gf.energy_norm(system, v - w))
        worst[name] = w_max
    # symmetric case with delta = 1: ratio vanishes
    laplace = ProblemData(domain="unit-square", f=1.0)
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 4)
    system = gf.assemble(gf.build_space(mesh, 1), laplace)
    v = rng.standard_normal(system.n)
    w = rng.standard_normal(system.n)
    pv = gf.exact_phi(system, "primal", v, 1.0)
    pw = gf.exact_phi(system, "primal", w, 1.0)
    sym_ratio = (gf.energy_norm(system, pv.values - pw.values)
                 / gf.energy_norm(system, v - w))
    ok = all(r < 1.0 for r in worst.values()) and sym_ratio <= 1e-10
    _report(5, ok, f"measured contraction {worst['bench1']:.3f}/{worst['bench2']:.3f} < 1 "
                   f"(20 pairs, delta=0.5); symmetric delta=1 ratio {sym_ratio:.1e} <= 1e-10")


def test_criterion_06_algebraic_solver_contraction(level_contractions):
    values = list(level_contractions.values())
    drift = max(values) - min(values)
    ok = max(values) < 1.0 and drift <= 0.15
    _report(6, ok, f"per-step energy ratios {min(values):.3f}..{max(values):.3f} < 1 "
                   f"on levels 4..14, drift {drift:.3f} <= 0.15")


def test_criterion_07_estimator_reduction(bench1, bench2):
    rng = np.random.default_rng(77)
    checked = 0
    margin = np.inf
    configs = [(bench1.problem, "unit-square", 1), (bench1.problem, "unit-square", 2),
               (bench2.problem, "zshape", 1), (bench2.problem, "zshape", 2)]
    for problem, domain, p in configs:
        mesh = gf.uniform_refine(gf.initial_mesh(domain), 2)
        for _ in range(13):
            space = gf.build_space(mesh, p)
            marked = rng.choice(mesh.n_triangles,
                                size=rng.integers(1, max(2, mesh.n_triangles // 3)),
                                replace=False)
            fine_mesh = gf.refine(mesh, marked)
            fine_space = gf.build_space(fine_mesh, p)
            v = gf.DiscreteFunction(space, rng.standard_normal(space.dim))
            v_f = gf.prolong(v, fine_space)
            fc = gf.indicators(space, problem, v, "primal")
            ff = gf.indicators(fine_space, problem, v_f, "primal")
            counts = np.bincount(fine_mesh.parent, minlength=mesh.n_triangles)
            new_elems = np.nonzero(counts[fine_mesh.parent] > 1)[0]
            refined = np.nonzero(counts > 1)[0]
            lhs = gf.subset_total(ff, new_elems)
            rhs = QRED * gf.subset_total(fc, refined)
            margin = min(margin, rhs + 1e-8 - lhs)
            checked += 1
            if lhs > rhs + 1e-8:
                _report(7, False, f"reduction violated by {lhs - rhs:.2e}")
            mesh = fine_mesh
            if mesh.n_triangles > 500:
                mesh = gf.uniform_refine(gf.initial_mesh(domain), 2)
    ok = checked >= 50 and margin >= 0.0
    _report(7, ok, f"eta_h(new) <= 2^(-1/4) eta_H(refined) + 1e-8 on {checked} "
                   f"randomized cases (worst margin {margin:.2e})")


def test_criterion_08_marking_oracle():
    from test_marking import brute_force_min_cardinality

    rng = np.random.default_rng(404)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 15))
        eta_sq = rng.random(n) ** 2
        if rng.random() < 0.25:
            eta_sq[rng.integers(0, n)] = 0.0
        theta = float(rng.uniform(0.05, 1.0))
        field = gf.IndicatorField(eta_sq=eta_sq)
        marked = gf.doerfler_mark(field, theta)
        expected = brute_force_min_cardinality(eta_sq, theta)
        if marked.size != expected:
            _report(8, False, f"cardinality {marked.size} != brute force {expected}")
        checked += 1
    _report(8, True, f"doerfler_mark cardinality equals brute-force minimum on "
                     f"{checked} random fields (<= 14 elements)")


def test_criterion_09_hand_estimator_value(laplace):
    space = gf.build_space(gf.initial_mesh("unit-square"), 1)
    field = gf.indicators(space, laplace, gf.zero_function(space), "primal")
    err = abs(field.total - np.sqrt(0.5))
    ok = err <= 1e-10
    _report(9, ok, f"Laplace f=1, v=0 on 2-triangle square: eta = {field.total:.12f} "
                   f"(sqrt(1/2) +- 1e-10, err {err:.1e})")


def test_criterion_10_nvb_invariants(run_p1, square_mesh):
    meshes = run_p1.hierarchy.levels
    conforming = all(gf.is_conforming(m) for m in meshes)
    ref_angle = gf.min_angle(gf.uniform_refine(square_mesh, 2))
    angles_ok = all(gf.min_angle(m) >= ref_angle - 1e-12 for m in meshes)
    one = gf.refine(square_mesh, [0])
    both = gf.refine(square_mesh, [0, 1])
    hand_ok = (one.n_triangles == 4 and both.n_triangles == 4
               and both.n_vertices == 5)
    ok = conforming and angles_ok and hand_ok
    _report(10, ok, f"all {len(meshes)} run meshes conforming, min angle >= "
                    f"{ref_angle:.4f} rad, hand-traced bisection counts match")


def test_criterion_11_stopping_criteria_audit(bench1, bench2):
    from test_driver import _audit

    audited = 0
    for spec in (bench1, bench2):
        params = gf.AdaptiveParams(p=1, max_levels=4)
        res = gf.run(spec.problem, params)
        for lvl in (0, len(res.stats) // 2, len(res.stats) - 1):
            stats_u, stats_z = res.stats[lvl]
            _audit(stats_u)
            _audit(stats_z)
            audited += 1
    _report(11, True, f"logged n-/m-criterion values hold exactly at the stop "
                      f"indices and fail before, {audited} levels over both benchmarks")


def test_criterion_12_solver_step_counts(run_p1):
    counts = [max(r.steps_primal, r.steps_dual) for r in run_p1.records]
    frac = float(np.mean([c <= 10 for c in counts]))
    ok = frac >= 0.9
    _report(12, ok, f"per-level total solver steps <= 10 on {100 * frac:.0f}% of "
                    f"{len(counts)} levels (max {max(counts)})")
