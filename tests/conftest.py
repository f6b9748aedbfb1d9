from dataclasses import asdict

import numpy as np
import pytest

import goafem as gf
from goafem.problem import ProblemData


@pytest.fixture(scope="session")
def bench1():
    return gf.get_benchmark("goal-singularity")


@pytest.fixture(scope="session")
def bench2():
    return gf.get_benchmark("zshape-convection")


@pytest.fixture(scope="session")
def laplace():
    return ProblemData(domain="unit-square", f=1.0)


@pytest.fixture(scope="session")
def square_mesh():
    return gf.initial_mesh("unit-square")


@pytest.fixture(scope="session")
def zshape_mesh():
    return gf.initial_mesh("zshape")


@pytest.fixture(scope="session")
def run_p1(bench1):
    """Benchmark 1, p = 1, defaults, to cumulative cost >= 4e5.

    Shared by the acceptance criteria on the exact goal value, the
    convergence rates, the error/estimator equivalence, the solver-step
    counts and the mesh invariants.
    """
    params = gf.AdaptiveParams(p=1, max_cost=4e5)
    return gf.run(bench1.problem, params)


@pytest.fixture(scope="session")
def run_p2(bench1):
    """Benchmark 1, p = 2, for the higher-order rate check."""
    params = gf.AdaptiveParams(p=2, max_cost=2.5e5)
    return gf.run(bench1.problem, params)


@pytest.fixture(scope="session")
def run_zshape(bench2):
    """Benchmark 2, p = 1, to cumulative cost >= 1.5e5."""
    params = gf.AdaptiveParams(p=1, max_cost=1.5e5)
    return gf.run(bench2.problem, params)


@pytest.fixture(scope="session")
def run_p1_diag(bench1):
    """Small benchmark-1 run with quasi-error diagnostics enabled."""
    params = gf.AdaptiveParams(p=1, max_cost=2e4, diagnostics=True)
    return gf.run(bench1.problem, params)


def subhierarchy(hierarchy, level):
    """Rebuild the mesh hierarchy truncated at ``level``."""
    sub = gf.MeshHierarchy(hierarchy.levels[0])
    for mesh in hierarchy.levels[1:level + 1]:
        sub.append(mesh)
    return sub


@pytest.fixture(scope="session")
def level_contractions(run_p1, bench1):
    """Worst measured psi-step contraction factor on levels 4..14 of the
    benchmark-1 run (three random starts each): up to 694 free dofs, so
    the upper levels recurse above the cycle's dense bottom operator."""
    rng = np.random.default_rng(31)
    worst = {}
    for level in range(4, 15):
        sub = subhierarchy(run_p1.hierarchy, level)
        space = gf.build_space(sub.finest, 1)
        system = gf.assemble(space, bench1.problem)
        pc = gf.build_preconditioner(sub, space, system.A_sym)
        rhs = system.F_vec
        xstar = system.solve_spd(rhs)
        ratios = []
        for _ in range(3):
            x = rng.standard_normal(space.dim)
            e0 = gf.energy_norm(system, xstar - x)
            x1 = gf.psi_step(pc, rhs, x)
            ratios.append(gf.energy_norm(system, xstar - x1) / e0)
        worst[level] = max(ratios)
    return worst


def point_data_problem():
    """Problem data that varies from point to point, with a nonzero
    f_vec and consistent divergences, on the wedge domain (which has
    Neumann edges).  Both benchmarks have constant div data and f_vec = 0,
    so only this problem checks the rows made from them on varying data."""
    return ProblemData(
        domain="zshape",
        b_conv=lambda x: np.stack([x[..., 0] ** 2, x[..., 0] * x[..., 1]], axis=-1),
        c=lambda x: 1.0 + x[..., 1] ** 2,
        div_b=lambda x: 3.0 * x[..., 0],
        f=lambda x: 1.0 + x[..., 0] * x[..., 1],
        f_vec=lambda x: np.stack([np.sin(x[..., 1]), x[..., 0] * x[..., 1]], axis=-1),
        div_f_vec=lambda x: x[..., 0],
        g=lambda x: np.cos(x[..., 0]),
        g_vec=lambda x: np.stack([x[..., 0] * x[..., 1], 0.0 * x[..., 0]], axis=-1),
        div_g_vec=lambda x: x[..., 1])


def record_fields(record):
    """The fields of a ``HistoryRecord`` but the machine-dependent
    ``cum_time`` and ``peak_rss_kib``, floats as ``float.hex``."""
    return {k: v.hex() if isinstance(v, float) else v
            for k, v in asdict(record).items() if k not in ("cum_time", "peak_rss_kib")}


def random_function(space, rng, scale=1.0):
    return gf.DiscreteFunction(space, scale * rng.standard_normal(space.n_free))


def energy_error_to_exact(space, problem, grad_exact, u):
    """Energy distance ||grad(u_exact - u_h)||_{L2} for A = I via quadrature."""
    from goafem.quadrature import triangle_rule
    from goafem.space import grad_lambda

    mesh = space.mesh
    bary, w = triangle_rule(2 * space.p + 4)
    dbary = space.basis.grad_bary(bary)
    glam = grad_lambda(mesh)
    pts = mesh.vertices[mesh.triangles]
    x = np.einsum("qb,cbd->cqd", bary, pts)
    grads = np.einsum("qib,cbd->cqid", dbary, glam)
    coeffs = u.full()[space.cell_dofs]
    gh = np.einsum("cqid,ci->cqd", grads, coeffs)
    ge = grad_exact(x)
    diff = ge - gh
    err_sq = 2.0 * mesh.areas @ ((diff ** 2).sum(axis=2) @ w)
    return float(np.sqrt(max(err_sq, 0.0)))
