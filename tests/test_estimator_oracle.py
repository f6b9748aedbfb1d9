"""Brute-force cross-check of the vectorized indicator kernels.

The oracle below recomputes the squared indicators element by element
and edge by edge in plain Python: the iterate's gradients and second
derivatives come from central finite differences of the local
polynomial (never from the analytic basis derivative tables), normals
and barycentric coordinates are solved geometrically, and the data is
evaluated directly.  Quadrature nodes match the production rule (the
estimator is defined with its fixed 2p+2 rule), so agreement is
expected to finite-difference accuracy.
"""

import zlib

import numpy as np
import pytest

import goafem as gf
from goafem import problem as prob
from goafem.mesh import DIRICHLET, NEUMANN
from goafem.problem import ProblemData
from goafem.quadrature import interval_rule, triangle_rule


def local_value(space, full, elem, points):
    """Evaluate the local polynomial of one element at physical points
    (polynomial extension outside the element included)."""
    mesh = space.mesh
    tri = mesh.triangles[elem]
    p0, p1, p2 = mesh.vertices[tri]
    d1 = p1 - p0
    d2 = p2 - p0
    det = d1[0] * d2[1] - d1[1] * d2[0]
    r = points - p0
    lam1 = (r[:, 0] * d2[1] - r[:, 1] * d2[0]) / det
    lam2 = (d1[0] * r[:, 1] - d1[1] * r[:, 0]) / det
    bary = np.stack([1.0 - lam1 - lam2, lam1, lam2], axis=1)
    vals = space.basis.eval(bary)
    coeffs = full[space.cell_dofs[elem]]
    return vals @ coeffs


def fd_gradient(space, full, elem, points, h):
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    gx = (local_value(space, full, elem, points + ex)
          - local_value(space, full, elem, points - ex)) / (2 * h)
    gy = (local_value(space, full, elem, points + ey)
          - local_value(space, full, elem, points - ey)) / (2 * h)
    return np.stack([gx, gy], axis=1)


def fd_hessian_contract(space, full, elem, points, A, h):
    """A : Hess v by central second differences."""
    f0 = local_value(space, full, elem, points)
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    dxx = (local_value(space, full, elem, points + ex) - 2 * f0
           + local_value(space, full, elem, points - ex)) / h ** 2
    dyy = (local_value(space, full, elem, points + ey) - 2 * f0
           + local_value(space, full, elem, points - ey)) / h ** 2
    dxy = (local_value(space, full, elem, points + ex + ey)
           - local_value(space, full, elem, points + ex - ey)
           - local_value(space, full, elem, points - ex + ey)
           + local_value(space, full, elem, points - ex - ey)) / (4 * h ** 2)
    return A[0, 0] * dxx + A[1, 1] * dyy + (A[0, 1] + A[1, 0]) * dxy


def naive_indicators(space, problem, v, which, h=1e-5):
    mesh = space.mesh
    full = v.full()
    p = space.p
    sign = 1.0 if which == "primal" else -1.0
    A = np.asarray(problem.A, dtype=float).reshape(2, 2)
    d_vec = problem.f_vec if which == "primal" else problem.g_vec

    eta_sq = np.zeros(mesh.n_triangles)
    bary, w = triangle_rule(2 * p + 2)
    for elem in range(mesh.n_triangles):
        tri = mesh.triangles[elem]
        pts = bary @ mesh.vertices[tri]
        area = mesh.areas[elem]
        grad = fd_gradient(space, full, elem, pts, h)
        conv = (prob.eval_vector(problem.b_conv, pts) * grad).sum(axis=1)
        vv = local_value(space, full, elem, pts)
        if which == "dual":
            c_eff = (prob.eval_scalar(problem.c, pts)
                     - prob.eval_scalar(problem.div_b, pts))
            load = prob.eval_scalar(problem.g, pts)
            divd = prob.eval_scalar(problem.div_g_vec, pts)
        else:
            c_eff = prob.eval_scalar(problem.c, pts)
            load = prob.eval_scalar(problem.f, pts)
            divd = prob.eval_scalar(problem.div_f_vec, pts)
        r = -fd_hessian_contract(space, full, elem, pts, A, h) + divd
        r += sign * conv + c_eff * vv - load
        eta_sq[elem] = area * 2.0 * area * (w * r * r).sum()

    t_pts, w_e = interval_rule(2 * p + 2)
    tables = mesh.edge_tables
    edges = tables.edges
    labels = mesh.edge_labels
    for eid in range(edges.shape[0]):
        lab = labels[eid]
        if lab == DIRICHLET:
            continue
        a, b = edges[eid]
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        pts = pa[None, :] + t_pts[:, None] * (pb - pa)[None, :]
        elen = np.linalg.norm(pb - pa)
        sides = []
        for slot in tables.sides[eid]:
            if slot < 0:
                continue
            elem = slot // 3
            cent = mesh.vertices[mesh.triangles[elem]].mean(axis=0)
            n = np.array([(pb - pa)[1], -(pb - pa)[0]])
            n /= np.linalg.norm(n)
            if (cent - 0.5 * (pa + pb)) @ n > 0:
                n = -n
            grad = fd_gradient(space, full, elem, pts, h)
            inside = pts + 1e-7 * (cent[None, :] - pts)
            dv = prob.eval_vector(d_vec, inside)
            flux = (grad @ A.T - dv) @ n
            sides.append((elem, flux))
        if lab == NEUMANN:
            elem, flux = sides[0]
            eta_sq[elem] += np.sqrt(mesh.areas[elem]) * elen * (w_e * flux ** 2).sum()
        else:
            jump = sides[0][1] + sides[1][1]
            contrib = elen * (w_e * jump ** 2).sum()
            for elem, _ in sides:
                eta_sq[elem] += 0.5 * np.sqrt(mesh.areas[elem]) * contrib
    return eta_sq


CASES = [
    ("bench1-primal-p1", "goal-singularity", "primal", 1),
    ("bench1-primal-p2", "goal-singularity", "primal", 2),
    ("bench1-dual-p2", "goal-singularity", "dual", 2),
    ("bench2-primal-p1", "zshape-convection", "primal", 1),
    ("bench2-dual-p1", "zshape-convection", "dual", 1),
    ("bench2-dual-p3", "zshape-convection", "dual", 3),
]


@pytest.mark.parametrize("label,bench,which,p", CASES, ids=[c[0] for c in CASES])
def test_indicators_match_brute_force(label, bench, which, p):
    spec = gf.get_benchmark(bench)
    rng = np.random.default_rng(zlib.crc32(label.encode()))
    mesh = gf.uniform_refine(gf.initial_mesh(spec.problem.domain), 2)
    mesh = gf.refine(mesh, rng.choice(mesh.n_triangles, size=5, replace=False))
    space = gf.build_space(mesh, p)
    v = gf.DiscreteFunction(space, rng.standard_normal(space.dim))
    fast = gf.indicators(space, spec.problem, v, which).eta_sq
    slow = naive_indicators(space, spec.problem, v, which)
    scale = max(slow.max(), 1e-12)
    assert np.allclose(fast, slow, rtol=2e-5, atol=2e-5 * scale)


def test_oracle_matches_hand_value(laplace):
    space = gf.build_space(gf.initial_mesh("unit-square"), 1)
    slow = naive_indicators(space, laplace, gf.zero_function(space), "primal")
    assert np.allclose(slow, [0.25, 0.25], atol=1e-12)


def test_oracle_with_nonidentity_diffusion():
    problem = ProblemData(domain="unit-square",
                          A=np.array([[2.0, 0.3], [0.3, 1.0]]),
                          b_conv=(1.0, -0.5), c=0.7, f=1.0)
    rng = np.random.default_rng(6)
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 3)
    space = gf.build_space(mesh, 2)
    v = gf.DiscreteFunction(space, rng.standard_normal(space.dim))
    fast = gf.indicators(space, problem, v, "primal").eta_sq
    slow = naive_indicators(space, problem, v, "primal")
    assert np.allclose(fast, slow, rtol=2e-5, atol=2e-5 * slow.max())


def naive_bilinear(space, problem, u, v, h=1e-5):
    """b(u, v) recomputed per element with finite-difference gradients."""
    mesh = space.mesh
    fu = u.full()
    fv = v.full()
    A = np.asarray(problem.A, dtype=float).reshape(2, 2)
    bary, w = triangle_rule(2 * space.p + 2)
    total = 0.0
    for elem in range(mesh.n_triangles):
        pts = bary @ mesh.vertices[mesh.triangles[elem]]
        gu = fd_gradient(space, fu, elem, pts, h)
        gv = fd_gradient(space, fv, elem, pts, h)
        vu = local_value(space, fu, elem, pts)
        vv = local_value(space, fv, elem, pts)
        bc = prob.eval_vector(problem.b_conv, pts)
        c = prob.eval_scalar(problem.c, pts)
        integrand = ((gu @ A.T) * gv).sum(axis=1) + ((bc * gu).sum(axis=1) + c * vu) * vv
        total += 2.0 * mesh.areas[elem] * (w * integrand).sum()
    return total


@pytest.mark.parametrize("p", [1, 2])
def test_assembled_form_matches_brute_force(p):
    spec = gf.get_benchmark("goal-singularity")
    rng = np.random.default_rng(100 + p)
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 2)
    mesh = gf.refine(mesh, [0, 3])
    space = gf.build_space(mesh, p)
    system = gf.assemble(space, spec.problem)
    for _ in range(3):
        u = gf.DiscreteFunction(space, rng.standard_normal(space.dim))
        v = gf.DiscreteFunction(space, rng.standard_normal(space.dim))
        fast = float(v.values @ (system.B @ u.values))
        slow = naive_bilinear(space, spec.problem, u, v)
        assert fast == pytest.approx(slow, rel=2e-7, abs=1e-9)


def test_assembled_loads_match_brute_force():
    spec = gf.get_benchmark("zshape-convection")
    rng = np.random.default_rng(55)
    mesh = gf.uniform_refine(gf.initial_mesh("zshape"), 2)
    space = gf.build_space(mesh, 2)
    system = gf.assemble(space, spec.problem)
    v = gf.DiscreteFunction(space, rng.standard_normal(space.dim))
    fv = v.full()
    bary, w = triangle_rule(2 * space.p + 2)
    F = 0.0
    G = 0.0
    for elem in range(mesh.n_triangles):
        pts = bary @ mesh.vertices[mesh.triangles[elem]]
        vv = local_value(space, fv, elem, pts)
        gv = fd_gradient(space, fv, elem, pts, 1e-5)
        f = prob.eval_scalar(spec.problem.f, pts)
        gvec = prob.eval_vector(spec.problem.g_vec, pts)
        F += 2.0 * mesh.areas[elem] * (w * f * vv).sum()
        G += 2.0 * mesh.areas[elem] * (w * (gvec * gv).sum(axis=1)).sum()
    assert float(system.F_vec @ v.values) == pytest.approx(F, rel=1e-8)
    assert float(system.G_vec @ v.values) == pytest.approx(G, rel=2e-7, abs=1e-12)
