import dataclasses
import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

import goafem as gf
from goafem.driver import IterationCapExceeded, NonFiniteStep
from goafem.problem import ProblemData


def test_params_validation():
    with pytest.raises(ValueError):
        gf.AdaptiveParams(theta=0.0, max_levels=1)
    with pytest.raises(ValueError):
        gf.AdaptiveParams(theta=1.2, max_levels=1)
    with pytest.raises(ValueError):
        gf.AdaptiveParams(lambda_alg=-1.0, max_levels=1)
    with pytest.raises(ValueError):
        gf.AdaptiveParams()  # no termination rule


@pytest.mark.parametrize("kwargs", [
    {"tol": float("nan")}, {"tol": -1.0}, {"tol": 0.0}, {"tol": float("inf")},
    {"max_cost": float("nan")}, {"max_cost": -1.0}, {"max_levels": -1},
    {"delta": float("nan"), "max_levels": 1}, {"lambda_sym": float("nan"), "max_levels": 1},
    {"lambda_alg": float("inf"), "max_levels": 1},
    {"p": 0, "max_levels": 1}, {"p": 4, "max_levels": 1},
    {"p": 2.0, "max_levels": 1}, {"p": True, "max_levels": 1},
    {"max_levels": 1.5}, {"max_levels": True},
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_params_reject_values_that_cannot_work(kwargs):
    # tol = nan as the only rule would refine until memory runs out, and a
    # NaN delta or lambda runs every inner loop into its step cap; a float
    # p would fail only later in build_space, and max_levels = 1.5 would run
    # 3 levels
    with pytest.raises(ValueError):
        gf.AdaptiveParams(**kwargs)


def test_problem_rejects_negative_initial_refinements():
    # a run would refine range(-3) times, zero, silently
    with pytest.raises(ValueError, match="initial_refinements"):
        ProblemData(f=1.0, initial_refinements=-3)


@pytest.mark.parametrize("obj, name, value", [
    (ProblemData(f=1.0), "initial_refinements", -3),
    (gf.AdaptiveParams(max_levels=1), "theta", 0.0),
], ids=["problem", "params"])
def test_inputs_are_checked_once_and_frozen(obj, name, value):
    # the checks run at construction only, so a field cannot be assigned
    # after it: dataclasses.replace builds (and checks) a new object
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, value)
    with pytest.raises(ValueError):
        dataclasses.replace(obj, **{name: value})


def test_run_starts_from_a_mesh_without_free_dofs():
    # the two-element unit square has no interior vertex: level 0 has no
    # free dof, and the loop refines it as any other level
    problem = ProblemData(domain="unit-square", f=1.0, g=1.0)
    res = gf.run(problem, gf.AdaptiveParams(p=1, max_levels=4))
    assert [r.ndofs for r in res.records] == [0, 1, 1, 1, 4]
    assert [r.n_elems for r in res.records] == [2, 4, 6, 8, 14]
    assert not res.estimator_zero and res.records[0].est_product > 0.0


def test_max_levels_zero(bench1):
    params = gf.AdaptiveParams(p=1, max_levels=0)
    res = gf.run(bench1.problem, params)
    assert len(res.records) == 1
    assert res.records[0].level == 0


def test_zero_problem_stops_immediately():
    problem = ProblemData(domain="unit-square", initial_refinements=2)
    params = gf.AdaptiveParams(p=1, max_levels=5)
    res = gf.run(problem, params)
    assert len(res.records) == 1
    assert res.estimator_zero
    stats_u, stats_z = res.stats[0]
    assert stats_u.m_final == 1
    assert stats_u.n_steps == [1]
    assert stats_z.m_final == 1
    assert stats_z.n_steps == [1]


def test_huge_lambdas_single_outer_step(laplace):
    problem = ProblemData(domain="unit-square", f=1.0, initial_refinements=2)
    params = gf.AdaptiveParams(p=1, delta=1.0, lambda_sym=1e6, lambda_alg=1e6,
                               max_levels=2)
    res = gf.run(problem, params)
    for stats_u, stats_z in res.stats:
        assert stats_u.m_final == 1
        assert stats_u.n_steps == [1]
        assert stats_z.m_final == 1


def test_iteration_cap(bench1, monkeypatch):
    from goafem import driver

    monkeypatch.setattr(driver, "MAX_STEPS", 2)
    # each message gives the two sides of the loop's last stopping test
    params = gf.AdaptiveParams(p=1, max_levels=3, lambda_alg=1e-13)
    with pytest.raises(IterationCapExceeded, match=r"primal algebraic loop exceeded 2 steps "
                       r"\(level dim \d+, last inc \S+ > bound \S+\)$"):
        gf.run(bench1.problem, params)
    params = gf.AdaptiveParams(p=1, max_levels=3, lambda_alg=1e6, lambda_sym=1e-13)
    with pytest.raises(IterationCapExceeded, match=r"primal symmetrization loop exceeded 2 "
                       r"steps \(level dim \d+, last tot \S+ > bound_m \S+\)$"):
        gf.run(bench1.problem, params)


def test_a_non_finite_step_stops_its_loop():
    # f = NaN for x_1 > 0.7 makes the first iterate NaN; a NaN step cannot
    # pass the stopping test, so the loop stops there, not at the cap
    problem = ProblemData(domain="unit-square", f=lambda x: np.where(x[..., 0] > 0.7, np.nan, 1.0),
                          g=1.0, initial_refinements=2)
    with pytest.raises(NonFiniteStep, match=r"^primal algebraic loop stopped at step 1 of "
                       r"outer step 1 \(level dim \d+\): inc nan or bound nan is not finite$"):
        gf.run(problem, gf.AdaptiveParams(p=1, max_levels=2))
    assert issubclass(NonFiniteStep, IterationCapExceeded)


def test_one_estimator_buffer_alive_at_a_time(bench1, monkeypatch):
    # each workspace is built while no other one is alive, and holds its
    # element rows only after its second evaluation; with the default
    # parameters every loop stops after one step, so no workspace holds
    # them at all
    from goafem import driver

    built, alive_at_build, logs = [], [], []

    class Tracked(driver.EstimatorWorkspace):
        def __init__(self, *args):
            alive_at_build.append(sum(ref() is not None for ref in built))
            super().__init__(*args)
            built.append(weakref.ref(self))
            self.holds_rows = []
            logs.append(self.holds_rows)

        def indicators(self, v):
            field = super().indicators(v)
            self.holds_rows.append(self._kept is not None)
            return field

    monkeypatch.setattr(driver, "EstimatorWorkspace", Tracked)
    for lam in (0.7, 0.01):
        built.clear(), alive_at_build.clear(), logs.clear()
        res = gf.run(bench1.problem, gf.AdaptiveParams(p=1, max_levels=2, lambda_alg=lam,
                                                       lambda_sym=lam))
        assert len(res.records) == 3
        assert alive_at_build == [0] * 6 and len(logs) == 6
        assert all(log == [k >= 2 for k in range(1, len(log) + 1)] for log in logs)
        assert (max(map(len, logs)) == 1) == (lam == 0.7)


def test_workspaces_and_solves_of_a_p1_level_stay_below_a_traced_bound(bench1):
    # the traced peak of the driver's two workspaces and solves on a
    # 16,384-element p = 1 level, seeded with the discrete solutions so
    # that each loop stops after one step: about 340 bytes per element
    # with the rows formed per block, about 600 where each workspace held
    # its rows for the whole level
    from goafem.driver import solve_estimate
    from goafem.estimator import EstimatorGeometry

    problem = bench1.problem
    mesh = gf.initial_mesh(problem.domain)
    hierarchy = gf.MeshHierarchy(mesh)
    for _ in range(13):
        mesh = gf.refine(mesh, np.arange(mesh.n_triangles))
        hierarchy.append(mesh)
    space = gf.build_space(mesh, 1)
    system = gf.assemble(space, problem)
    precond = gf.build_preconditioner(hierarchy, space, system.A_sym)
    geo = EstimatorGeometry(space, system.elements)
    seeds = [gf.solve_direct(system, which) for which in ("primal", "dual")]
    params = gf.AdaptiveParams(p=1, max_levels=1)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        steps = [solve_estimate(which, system, precond, gf.EstimatorWorkspace(geo, which), seed,
                                params)[2].total_steps
                 for which, seed in zip(("primal", "dual"), seeds)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.n_triangles == 16384 and steps == [1, 1]
    assert (peak - base) / mesh.n_triangles < 480


@pytest.mark.parametrize("p", [1, 2])
def test_one_p1_matrix_per_refine_step(bench1, monkeypatch, p):
    # the preconditioner's newest P1 level and, at p = 1, the prolongation
    # of both seeds read the one matrix of the level's space
    from goafem import multigrid, space

    calls = []

    def counted(mesh, free_index):
        calls.append(mesh)
        return build(mesh, free_index)

    build = space._p1_prolongation
    monkeypatch.setattr(space, "_p1_prolongation", counted)
    monkeypatch.setattr(multigrid, "_p1_prolongation", counted)
    res = gf.run(bench1.problem, gf.AdaptiveParams(p=p, max_levels=3))
    assert len(res.records) == 4
    assert calls == res.hierarchy.levels[1:]


def _audit(stats):
    # every logged inequality matches its stop flag, the last entry of
    # each loop stops, earlier ones do not
    by_m = {}
    for m, n, lhs, rhs, stopped in stats.alg_log:
        assert (lhs <= rhs) == stopped
        by_m.setdefault(m, []).append(stopped)
    for m, flags in by_m.items():
        assert flags[-1]
        assert not any(flags[:-1])
        assert len(flags) == stats.n_steps[m - 1]
    sym_flags = [s for (_, _, _, s) in stats.sym_log]
    assert sym_flags[-1]
    assert not any(sym_flags[:-1])
    for m, lhs, rhs, stopped in stats.sym_log:
        assert (lhs <= rhs) == stopped


@pytest.mark.parametrize("bench_name", ["goal-singularity", "zshape-convection"])
def test_stopping_criteria_audit(bench_name):
    spec = gf.get_benchmark(bench_name)
    params = gf.AdaptiveParams(p=1, max_levels=4)
    res = gf.run(spec.problem, params)
    levels = [0, len(res.stats) // 2, len(res.stats) - 1]
    for lvl in levels:
        stats_u, stats_z = res.stats[lvl]
        _audit(stats_u)
        _audit(stats_z)


def test_cost_recomputation_from_records(run_zshape):
    # each level is charged n_elems per combined step, and a combined
    # step of outer step k runs while either loop is active
    cum = 0
    for rec, (stats_u, stats_z) in zip(run_zshape.records, run_zshape.stats):
        pairs = itertools.zip_longest(stats_u.n_steps, stats_z.n_steps, fillvalue=0)
        assert rec.steps_combined == sum(max(nu, nz) for nu, nz in pairs)
        cum += rec.n_elems * rec.steps_combined
        assert rec.cum_cost == cum
    costs = [rec.cum_cost for rec in run_zshape.records]
    assert all(b > a for a, b in zip(costs, costs[1:]))


def test_counter_strictly_increases(run_p1_diag):
    keys = [(d[0], d[1], d[2]) for d in run_p1_diag.diagnostics]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert len(keys) == sum(rec.steps_combined for rec in run_p1_diag.records)


def test_goal_error_trend(run_p1, bench1):
    records = run_p1.records
    assert records[-1].ndofs >= 1e4
    errs = [abs(r.goal - bench1.exact_goal) for r in records]
    assert errs[-1] < errs[3]


def test_zshape_estimator_decay(run_zshape):
    records = run_zshape.records
    assert records[-1].cum_cost >= 1e5
    pairs = list(zip(records, records[1:]))
    frac = np.mean([b.est_product < a.est_product for a, b in pairs])
    assert frac >= 0.8


def test_mesh_closure_constant(run_p1):
    meshes = run_p1.hierarchy.levels
    marked = run_p1.marked_history
    n0 = meshes[0].n_triangles
    worst = 0.0
    for ell in range(1, len(meshes)):
        total_marked = sum(m.size for m in marked[:ell])
        growth = meshes[ell].n_triangles - n0
        worst = max(worst, growth / total_marked)
    assert worst < 20.0


def test_quasi_error_product_decay(run_p1_diag):
    hz = np.array([h * z for (_, _, _, h, z) in run_p1_diag.diagnostics])
    assert hz.shape[0] >= 15
    win = 10
    ratios = hz[win:] / hz[:-win]
    assert np.max(ratios) <= 0.95


@pytest.mark.parametrize("lam, p, measured", [(0.1, 1, 57.0), (0.1, 2, 16.6),
                                              (0.1, 3, 9.9), (0.7, 1, 11.3),
                                              (0.7, 2, 3.3), (0.7, 3, 2.0)])
def test_quasi_error_tail_summability(bench1, lam, p, measured):
    # full linear convergence of the quasi-error product Delta = H Z over
    # the nested index (l, k, j) is equivalent to tail summability,
    # sum_{k' > k} Delta_k' <= C Delta_k for all k (Carstensen, Feischl,
    # Page, Praetorius, Comput. Math. Appl. 2014, Lemma 4.9); the bound
    # on C is twice the constant measured on this run (2x margin)
    params = gf.AdaptiveParams(p=p, lambda_sym=lam, lambda_alg=lam, max_cost=2e4,
                               diagnostics=True)
    delta = np.array([h * z for (_, _, _, h, z) in gf.run(bench1.problem, params).diagnostics])
    assert delta.shape[0] >= 15
    tail = np.cumsum(delta[::-1])[::-1]
    assert np.max(tail[1:] / delta[:-1]) <= 2.0 * measured


def test_nested_iteration_seed(bench1):
    # the level seed is the prolonged final iterate of the previous level
    params = gf.AdaptiveParams(p=1, max_levels=1)
    res = gf.run(bench1.problem, params)
    assert res.records[-1].level == 1
    # final iterates exist in the final space
    assert res.final_primal.space.mesh is res.hierarchy.finest


def test_history_columns_complete(run_zshape):
    for rec in run_zshape.records:
        for name in ("ndofs", "n_elems", "eta", "zeta", "est_product", "goal",
                     "cum_cost", "cum_time", "steps_primal", "steps_dual",
                     "m_primal", "m_dual"):
            val = getattr(rec, name)
            assert val is not None
            assert np.isfinite(val)


def test_records_carry_the_peak_rss(bench1, monkeypatch):
    # each record reads the process's peak RSS when it is written; reading
    # it changes no other field (cum_time aside)
    import resource
    from dataclasses import asdict

    from goafem import driver

    params = gf.AdaptiveParams(p=1, max_levels=4)
    res = gf.run(bench1.problem, params)
    rss = [r.peak_rss_kib for r in res.records]
    assert rss[0] > 0 and rss == sorted(rss)
    assert rss[-1] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    class Usage:
        ru_maxrss = -1

    monkeypatch.setattr(driver.resource, "getrusage", lambda who: Usage)
    faked = gf.run(bench1.problem, params)
    assert [r.peak_rss_kib for r in faked.records] == [-1] * len(rss)

    def fields(record):
        return {k: v.hex() if isinstance(v, float) else v
                for k, v in asdict(record).items() if k not in ("cum_time", "peak_rss_kib")}

    assert [fields(r) for r in res.records] == [fields(r) for r in faked.records]


@pytest.mark.parametrize("platform, kib", [("linux", 3072), ("darwin", 3)])
def test_peak_rss_is_read_in_kib(bench1, monkeypatch, platform, kib):
    # ru_maxrss is in KiB on Linux and in bytes on macOS; the records
    # hold KiB on both
    from goafem import driver

    class Usage:
        ru_maxrss = 3072

    monkeypatch.setattr(driver.resource, "getrusage", lambda who: Usage)
    monkeypatch.setattr(driver.sys, "platform", platform)
    assert driver._peak_rss_kib() == kib
    res = gf.run(bench1.problem, gf.AdaptiveParams(p=1, max_levels=0))
    assert [r.peak_rss_kib for r in res.records] == [kib]


def test_finished_preconditioner_is_freed_before_the_next_assembly(bench1, monkeypatch):
    # only the P1 chain crosses levels: level l's preconditioner, with its
    # patch inverses, is dead when level l + 1 is assembled, and level
    # l + 1 extends its chain
    from goafem import driver

    built = []
    chains = []
    dead_at_assemble = []

    def tracked_build(*args, reuse=None):
        chains.append(None if reuse is None else (reuse.mesh, len(reuse.levels)))
        pc = build(*args, reuse=reuse)
        built.append(weakref.ref(pc))
        return pc

    def tracked_assemble(*args):
        dead_at_assemble.append([ref() is None for ref in built])
        return assemble(*args)

    build, assemble = driver.build_preconditioner, driver.assemble
    monkeypatch.setattr(driver, "build_preconditioner", tracked_build)
    monkeypatch.setattr(driver, "assemble", tracked_assemble)
    res = gf.run(bench1.problem, gf.AdaptiveParams(p=2, max_levels=3))
    assert len(res.records) == 4
    assert dead_at_assemble == [[True] * level for level in range(4)]
    meshes = res.hierarchy.levels
    assert chains[0] is None
    assert all(mesh is meshes[level] and n_levels == level
               for level, (mesh, n_levels) in enumerate(chains[1:]))


def test_solve_estimate_postconditions(bench1):
    # direct call of the public operation on one level
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 3)
    hier = gf.MeshHierarchy(mesh)
    space = gf.build_space(mesh, 1)
    system = gf.assemble(space, bench1.problem)
    pc = gf.build_preconditioner(hier, space, system.A_sym)
    from goafem.estimator import EstimatorGeometry, EstimatorWorkspace

    ws = EstimatorWorkspace(EstimatorGeometry(space, system.elements), "primal")
    params = gf.AdaptiveParams(p=1, max_levels=1)
    u, field, stats, _ = gf.solve_estimate("primal", system, pc, ws,
                                           gf.zero_function(space), params)
    assert stats.m_final >= 1
    assert field.total == pytest.approx(ws.indicators(u).total, rel=1e-13)
    _audit(stats)


def test_inner_steps_kept_only_with_diagnostics(bench1):
    from goafem.assemble import solve_direct
    from goafem.estimator import EstimatorGeometry, EstimatorWorkspace
    from goafem.zarantonello import exact_phi

    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 3)
    hier = gf.MeshHierarchy(mesh)
    space = gf.build_space(mesh, 1)
    system = gf.assemble(space, bench1.problem)
    pc = gf.build_preconditioner(hier, space, system.A_sym)
    ws = EstimatorWorkspace(EstimatorGeometry(space, system.elements), "primal")
    seed = gf.zero_function(space)
    # huge lambdas: one outer step of one inner step
    kw = dict(p=1, max_levels=1, lambda_sym=1e6, lambda_alg=1e6)
    u_off, _, _, quasi_off = gf.solve_estimate("primal", system, pc, ws, seed,
                                                gf.AdaptiveParams(**kw))
    params = gf.AdaptiveParams(diagnostics=True, **kw)
    u_on, field, stats_on, quasi_on = gf.solve_estimate("primal", system, pc, ws, seed, params)
    assert quasi_off == []
    assert stats_on.n_steps == [1]
    assert np.array_equal(u_on.values, u_off.values)
    # H = |u* - u| + |phi(seed) - u| + eta(u) of the one step
    star = solve_direct(system, "primal").values
    phi = exact_phi(system, "primal", seed, params.delta).values
    h = (gf.energy_norm(system, star - u_on.values)
         + gf.energy_norm(system, phi - u_on.values) + field.total)
    assert quasi_on == [h]

    # a small run gives the same records with diagnostics on, plus the quasi-errors
    plain = gf.run(bench1.problem, gf.AdaptiveParams(p=1, max_cost=3e3))
    diag = gf.run(bench1.problem, gf.AdaptiveParams(p=1, max_cost=3e3, diagnostics=True))
    assert len(diag.records) == len(plain.records)
    for a, b in zip(plain.records, diag.records):
        assert (a.ndofs, a.eta, a.zeta, a.goal, a.cum_cost, a.steps_combined) == \
               (b.ndofs, b.eta, b.zeta, b.goal, b.cum_cost, b.steps_combined)
        assert a.quasi_h is None and b.quasi_h > 0.0 and b.quasi_z > 0.0
    assert len(diag.diagnostics) == sum(r.steps_combined for r in diag.records)


def test_run_p3_smoke(bench1):
    params = gf.AdaptiveParams(p=3, max_levels=8)
    res = gf.run(bench1.problem, params)
    assert res.records[-1].est_product < 0.02 * res.records[0].est_product
    assert abs(res.records[-1].goal - bench1.exact_goal) < 1e-4


def test_run_zshape_p2_smoke(bench2):
    params = gf.AdaptiveParams(p=2, max_levels=6)
    res = gf.run(bench2.problem, params)
    assert res.records[-1].est_product < res.records[0].est_product
    assert all(gf.is_conforming(m) for m in res.hierarchy.levels)


def test_quasi_errors_in_records(run_p1_diag):
    for rec in run_p1_diag.records:
        assert rec.quasi_h is not None and rec.quasi_h > 0.0
        assert rec.quasi_z is not None and rec.quasi_z > 0.0
        # the quasi-error dominates the estimator part by construction
        assert rec.quasi_h >= rec.eta - 1e-12
        assert rec.quasi_z >= rec.zeta - 1e-12


def test_run_rejects_callable_diffusion_for_p2_before_assembly(monkeypatch):
    from goafem import driver

    assembled = []
    monkeypatch.setattr(driver, "assemble", lambda *args: assembled.append(args))
    problem = ProblemData(domain="unit-square", A=lambda x: np.broadcast_to(
        np.eye(2), x.shape[:-1] + (2, 2)), f=1.0, initial_refinements=1)
    with pytest.raises(ValueError, match="constant diffusion"):
        gf.run(problem, gf.AdaptiveParams(p=2, max_levels=1))
    assert assembled == []


@pytest.mark.parametrize("name, p", [("goal-singularity", 1), ("zshape-convection", 3)])
def test_carried_rows_change_no_record(monkeypatch, name, p):
    # a run that computes every row on every level gives the same records,
    # bit for bit, as one that copies the rows of the kept elements
    from dataclasses import asdict

    from goafem import driver

    problem = gf.get_benchmark(name).problem
    params = gf.AdaptiveParams(p=p, max_levels=5)
    assemble = driver.assemble
    copied = []

    def counted(space, problem, previous=None):
        copied.append(0 if previous is None else int(space.mesh.kept.sum()))
        return assemble(space, problem, previous)

    monkeypatch.setattr(driver, "assemble", counted)
    carried = gf.run(problem, params)
    monkeypatch.setattr(driver, "assemble", lambda space, problem, previous=None:
                        assemble(space, problem))
    full = gf.run(problem, params)

    def fields(record):
        return {k: v.hex() if isinstance(v, float) else v
                for k, v in asdict(record).items() if k not in ("cum_time", "peak_rss_kib")}

    assert len(carried.records) == 6 and copied[0] == 0 and sum(copied) > 0
    assert [fields(r) for r in carried.records] == [fields(r) for r in full.records]
