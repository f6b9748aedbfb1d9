"""Nested adaptive loop: solve & estimate, mark, refine, account.

Per level the primal and dual problems are solved by the inexact
symmetrization iteration: the outer loop freezes the current iterate
into the symmetric correction right-hand side, the inner loop applies
the contractive multilevel solver and recomputes the full estimator
after every step.  Inner loop m/step n stop as soon as

    |u^{m,n} - u^{m,n-1}|  <=  lambda_alg [lambda_sym eta(u^{m,n}) + |u^{m,n} - u^{m,0}|],
    |u^{m,n_} - u^{m,0}|   <=  lambda_sym eta(u^{m,n_}),

(energy norms), with the analogous criteria for the dual iterate.  The
two solver loops are independent and are paired step-for-step into a
combined counter: a loop that has already stopped keeps its final
iterate frozen while the other continues, so outer step k takes
max(n_u[k], n_z[k]) combined steps.  A level is charged its number of
elements per combined step, which makes the cumulative cost the
quantity the optimal-complexity statements are about.

Each problem is set up, solved and estimated in one pass, and the dual
estimator workspace takes over the primal's buffer, so one buffer is
alive at a time; diagnostics take the oracle
quasi-errors at each inner step.  A level computes its element rows,
edge terms included, only for the elements the last refine created:
``assemble`` receives the finished level's element data and copies the
rows of the kept elements from it (the carry, see :mod:`goafem.assemble`).
Of the preconditioner only the P1 chain crosses levels: the next build
appends one record to it (see :mod:`goafem.multigrid`).  Nothing else
is carried: the finished level's system, estimator geometry and
preconditioner top (A_sym, the transfer into the chain and the
finest-space smoother) are freed once it is marked, before the mesh is
refined, and its final iterates, with the space they live on, once they
are prolonged to seed the new level.
Each loop raises ``IterationCapExceeded`` past ``MAX_STEPS`` steps; its
message gives the two sides of the loop's last stopping test.  A step
whose two sides are not both finite raises its subclass
``NonFiniteStep`` at once, as no later step can pass the test.
"""

import logging
import math
import numbers
import resource
import sys
import time
from dataclasses import dataclass
from itertools import zip_longest
from typing import Optional

from .assemble import assemble, energy_norm, goal_value, solve_direct
from .estimator import EstimatorGeometry, EstimatorWorkspace
from .marking import combine_marks, doerfler_mark
from .mesh import MeshHierarchy, initial_mesh, refine, uniform_refine
from .multigrid import build_preconditioner, psi_step
from .space import DiscreteFunction, build_space, prolong, zero_function
from .zarantonello import zarantonello_rhs

log = logging.getLogger("goafem")

MAX_STEPS = 500      # safety cap on the steps of each loop, outer and inner


class IterationCapExceeded(RuntimeError):
    """Safety cap hit in a solver loop.  Outside the coercive setting a
    correct run can hit it: zshape-convection at p = 1 with lambda_sym =
    lambda_alg = 0.1 does not contract on level 0 (delta = 0.5)."""


class NonFiniteStep(IterationCapExceeded):
    """A solver step whose increment or stopping bound is not finite, as
    from NaN problem data; the loop stops at that step, not at the cap."""


@dataclass(frozen=True)
class AdaptiveParams:
    """Input parameters of the adaptive algorithm."""

    theta: float = 0.5
    delta: float = 0.5
    lambda_sym: float = 0.7
    lambda_alg: float = 0.7
    p: int = 1
    # termination: any set rule fires
    tol: Optional[float] = None          # estimator product threshold
    # cumulative cost bound, checked once per level after solve & estimate:
    # a run stops at the first level whose cost reaches it, so it can
    # overshoot by that level's charges (a 2e6 budget stopped at 2.054e6)
    max_cost: Optional[float] = None
    max_levels: Optional[int] = None     # last level index
    # oracle quasi-errors at every inner step (direct solves, off the
    # cost path: no other number changes)
    diagnostics: bool = False

    def __post_init__(self):
        if any(isinstance(v, bool) or not isinstance(v, numbers.Integral)
               for v in (self.p, self.max_levels) if v is not None):
            raise ValueError("p and max_levels must be integers")
        if self.p not in (1, 2, 3):
            raise ValueError("p must be 1, 2 or 3")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")
        if not all(0.0 < v < math.inf for v in (self.delta, self.lambda_sym, self.lambda_alg)):
            raise ValueError("delta, lambda_sym, lambda_alg must be finite and positive")
        if not all(v is None or 0.0 < v < math.inf for v in (self.tol, self.max_cost)):
            raise ValueError("tol and max_cost, when set, must be finite and positive")
        if self.max_levels is not None and self.max_levels < 0:
            raise ValueError("max_levels must be non-negative")
        if self.tol is None and self.max_cost is None and self.max_levels is None:
            raise ValueError("at least one termination rule is required")


@dataclass
class SolveStats:
    """Loop protocol of one solve_estimate call (one problem, one level)."""

    n_steps: list                 # n_[m] for m = 1..m_
    alg_log: list                 # (m, n, lhs, rhs, stopped)
    sym_log: list                 # (m, lhs, rhs, stopped)

    @property
    def m_final(self):
        return len(self.n_steps)

    @property
    def total_steps(self):
        return int(sum(self.n_steps))


@dataclass
class HistoryRecord:
    """Per-level snapshot written after solve & estimate; ``cum_cost``
    adds n_elems * steps_combined to the previous level's, and
    ``peak_rss_kib`` is the process's peak resident set size in KiB
    (``_peak_rss_kib``) when the record is written."""

    level: int
    ndofs: int
    n_elems: int
    eta: float
    zeta: float
    est_product: float
    goal: float
    cum_cost: float
    cum_time: float
    peak_rss_kib: int
    steps_primal: int
    steps_dual: int
    steps_combined: int
    m_primal: int
    m_dual: int
    # oracle-based quasi-errors of the final iterates; only filled when
    # diagnostics are enabled, never on the cost path
    quasi_h: Optional[float] = None
    quasi_z: Optional[float] = None


@dataclass
class RunResult:
    """A run's records, loop stats and marks, one entry per level."""

    records: list
    stats: list                   # (primal SolveStats, dual SolveStats) per level
    marked_history: list
    hierarchy: MeshHierarchy
    final_primal: DiscreteFunction
    final_dual: DiscreteFunction
    diagnostics: list             # (level, k, j, H, Z) per combined step
    estimator_zero: bool = False


def _peak_rss_kib():
    """The process's peak resident set size in KiB: ``ru_maxrss``, which
    is in KiB on Linux and in bytes on macOS."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss // 1024 if sys.platform == "darwin" else rss


def solve_estimate(which, system, precond, workspace, seed, params):
    """Inexact symmetrization loop for one problem on one level.

    Returns the final iterate, its indicator field, the loop stats and,
    with ``params.diagnostics`` only, the quasi-error
    |u* - u| + |phi - u| + eta(u) of every inner step (empty otherwise):
    u* is the exact discrete solution and phi the exact symmetrization
    step of the current outer step.  The per-step criterion values are
    logged so the stopping conditions can be audited exactly.
    """
    lam_alg = params.lambda_alg
    lam_sym = params.lambda_sym
    alg_log = []
    sym_log = []
    n_steps = []
    quasi = []
    if params.diagnostics:
        star = solve_direct(system, which).values

    u_m0 = seed
    for m in range(1, MAX_STEPS + 1):
        rhs = zarantonello_rhs(system, which, u_m0, params.delta)
        if params.diagnostics:
            phi = system.solve_spd(rhs)
        u = u_m0
        for n in range(1, MAX_STEPS + 1):
            u_new = psi_step(precond, rhs, u)
            fld = workspace.indicators(u_new)
            inc = energy_norm(system, u_new.values - u.values)
            tot = energy_norm(system, u_new.values - u_m0.values)
            bound = lam_alg * (lam_sym * fld.total + tot)
            if not (math.isfinite(inc) and math.isfinite(bound)):
                raise NonFiniteStep(f"{which} algebraic loop stopped at step {n} of outer step "
                                    f"{m} (level dim {system.n}): inc {inc:.3e} or bound "
                                    f"{bound:.3e} is not finite")
            stop = inc <= bound
            alg_log.append((m, n, inc, bound, stop))
            if params.diagnostics:
                quasi.append(energy_norm(system, star - u_new.values)
                             + energy_norm(system, phi - u_new.values) + fld.total)
            if stop:
                break
            u = u_new
        else:
            raise IterationCapExceeded(f"{which} algebraic loop exceeded {MAX_STEPS} steps "
                                       f"(level dim {system.n}, last inc {inc:.3e} > "
                                       f"bound {bound:.3e})")
        n_steps.append(n)
        bound_m = lam_sym * fld.total
        stop_m = tot <= bound_m
        sym_log.append((m, tot, bound_m, stop_m))
        if stop_m:
            break
        u_m0 = u_new
    else:
        raise IterationCapExceeded(f"{which} symmetrization loop exceeded {MAX_STEPS} steps "
                                   f"(level dim {system.n}, last tot {tot:.3e} > "
                                   f"bound_m {bound_m:.3e})")

    return u_new, fld, SolveStats(n_steps=n_steps, alg_log=alg_log, sym_log=sym_log), quasi


def run(problem, params):
    """Adaptive loop (solve & estimate, mark, refine) until termination."""
    if callable(problem.A) and params.p >= 2:
        raise ValueError("p >= 2 needs a constant diffusion matrix A: the residual "
                         "estimator evaluates A:Hess u only for constant A")
    t_start = time.perf_counter()
    mesh = uniform_refine(initial_mesh(problem.domain), problem.initial_refinements)
    hierarchy = MeshHierarchy(mesh)

    records = []
    all_stats = []
    marked_history = []
    diag = []
    cum_cost = 0.0
    # the finished level's final iterates (primal, dual), None on level 0
    finished = (None, None)
    estimator_zero = False

    level = 0
    # the finished level's P1 chain and element data, whose rows of the
    # elements that refine kept the next level copies
    chain = elements = None
    while True:
        space = build_space(mesh, params.p)
        system = assemble(space, problem, elements)
        precond = build_preconditioner(hierarchy, space, system.A_sym, reuse=chain)
        geo = EstimatorGeometry(space, system.elements)
        # both seeds first: the finished level's iterates, and the space
        # they live on, are freed before either solve
        seed_u, seed_z = [zero_function(space) if f is None else prolong(f, space)
                          for f in finished]
        finished = None
        workspace = EstimatorWorkspace(geo, "primal")
        u, field_u, stats_u, h_steps = solve_estimate("primal", system, precond, workspace,
                                                      seed_u, params)
        workspace = EstimatorWorkspace(geo, "dual", workspace)
        z, field_z, stats_z, z_steps = solve_estimate("dual", system, precond, workspace,
                                                      seed_z, params)
        del workspace
        all_stats.append((stats_u, stats_z))
        quasi_h = h_steps[-1] if params.diagnostics else None
        quasi_z = z_steps[-1] if params.diagnostics else None

        # combined step (k, j) runs while either loop is active
        pairs = list(zip_longest(stats_u.n_steps, stats_z.n_steps, fillvalue=0))
        steps_combined = sum(max(pair) for pair in pairs)
        cum_cost += mesh.n_triangles * steps_combined
        if params.diagnostics:
            # a stopped loop keeps its last iterate, so it pairs with its last quasi-error
            cu = cz = 0
            for k, (nu, nz) in enumerate(pairs, 1):
                for j in range(1, max(nu, nz) + 1):
                    cu += j <= nu
                    cz += j <= nz
                    diag.append((level, k, j, h_steps[cu - 1], z_steps[cz - 1]))

        gval = goal_value(system, u, z)
        rec = HistoryRecord(
            level=level,
            ndofs=space.dim,
            n_elems=mesh.n_triangles,
            eta=field_u.total,
            zeta=field_z.total,
            est_product=field_u.total * field_z.total,
            goal=gval,
            cum_cost=cum_cost,
            cum_time=time.perf_counter() - t_start,
            peak_rss_kib=_peak_rss_kib(),
            steps_primal=stats_u.total_steps,
            steps_dual=stats_z.total_steps,
            steps_combined=steps_combined,
            m_primal=stats_u.m_final,
            m_dual=stats_z.m_final,
            quasi_h=quasi_h,
            quasi_z=quasi_z,
        )
        records.append(rec)
        log.info("level %3d: ndofs %8d elems %8d eta*zeta %.4e cost %.3e",
                 level, rec.ndofs, rec.n_elems, rec.est_product, rec.cum_cost)

        if rec.est_product == 0.0:
            # an exactly vanishing estimator means the discrete solution is
            # exact; terminate with a success record instead of iterating
            estimator_zero = True
            break
        if params.tol is not None and rec.est_product <= params.tol:
            break
        if params.max_cost is not None and cum_cost >= params.max_cost:
            break
        if params.max_levels is not None and level >= params.max_levels:
            break

        marks_u = doerfler_mark(field_u, params.theta)
        marks_z = doerfler_mark(field_z, params.theta)
        marked = combine_marks(marks_u, marks_z, field_u, field_z)
        marked_history.append(marked)
        elements, chain = system.elements, precond.p1
        # free the finished level's matrices, side set and preconditioner top
        del system, geo, precond

        mesh = refine(mesh, marked)
        hierarchy.append(mesh)
        finished = (u, z)
        del u, z
        level += 1

    return RunResult(
        records=records,
        stats=all_stats,
        marked_history=marked_history,
        hierarchy=hierarchy,
        final_primal=u,
        final_dual=z,
        diagnostics=diag,
        estimator_zero=estimator_zero,
    )
