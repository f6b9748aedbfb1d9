import dataclasses
import importlib
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goafem as gf
from conftest import energy_error_to_exact, point_data_problem
from goafem.assemble import _apply_diffusion, _element_pass, quadrature_weights
from goafem.basis import edge_grad_tables, triangle_tables
from goafem.estimator import EstimatorGeometry
from goafem.mesh import NEUMANN
from goafem.problem import ProblemData, eval_scalar, eval_vector, is_zero
from goafem.quadrature import interval_rule, triangle_rule
from goafem.space import grad_lambda

QRED = 2.0 ** (-0.25)


def _geometry(space, problem):
    return EstimatorGeometry(space, _element_pass(space, problem))


def _points(space):
    """The element quadrature points of ``space``, (nt, nq, 2)."""
    bary = triangle_rule(2 * space.p + 2)[0]
    return np.matmul(bary[None, :, :], space.mesh.vertices[space.mesh.triangles])


def test_hand_value_laplace(square_mesh, laplace):
    space = gf.build_space(square_mesh, 1)
    field = gf.indicators(space, laplace, gf.zero_function(space), "primal")
    assert np.allclose(field.eta_sq, [0.25, 0.25], atol=1e-14)
    assert field.total == pytest.approx(np.sqrt(0.5), abs=1e-10)


def test_zero_data_zero_indicators(square_mesh):
    problem = ProblemData(domain="unit-square")
    space = gf.build_space(gf.uniform_refine(square_mesh, 2), 1)
    rng = np.random.default_rng(0)
    v = gf.DiscreteFunction(space, rng.standard_normal(space.dim))
    # f = 0, f_vec = 0 and v = 0 gives identically zero indicators
    field = gf.indicators(space, problem, gf.zero_function(space), "primal")
    assert field.total == 0.0
    # nonzero v still yields zero element residuals only for p=1 Laplace
    # without data, but the jump terms see the gradient kinks
    field_v = gf.indicators(space, problem, v, "primal")
    assert field_v.total > 0.0


def test_primal_dual_coincide_for_symmetric_data(square_mesh):
    problem = ProblemData(domain="unit-square", f=1.0, g=1.0)
    space = gf.build_space(gf.uniform_refine(square_mesh, 2), 2)
    rng = np.random.default_rng(1)
    v = gf.DiscreteFunction(space, rng.standard_normal(space.dim))
    fp = gf.indicators(space, problem, v, "primal")
    fd = gf.indicators(space, problem, v, "dual")
    assert np.allclose(fp.eta_sq, fd.eta_sq, rtol=1e-13, atol=1e-15)


def test_subset_total(square_mesh, laplace):
    space = gf.build_space(square_mesh, 1)
    field = gf.indicators(space, laplace, gf.zero_function(space), "primal")
    assert gf.subset_total(field, [0, 1]) == pytest.approx(field.total)
    assert gf.subset_total(field, []) == 0.0
    assert gf.subset_total(field, [0]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        gf.subset_total(field, [7])
    # a boolean mask would be read as the ids 0 and 1
    with pytest.raises(ValueError, match="boolean mask"):
        gf.subset_total(field, np.ones(len(field), dtype=bool))


def test_subset_total_rejects_float_ids(square_mesh, laplace):
    # 1.9 would be truncated to the id 1 and sum element 1
    space = gf.build_space(square_mesh, 1)
    field = gf.indicators(space, laplace, gf.zero_function(space), "primal")
    with pytest.raises(ValueError, match="integer element ids"):
        gf.subset_total(field, [1.9])


def test_subset_monotone(bench1):
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 3)
    space = gf.build_space(mesh, 1)
    system = gf.assemble(space, bench1.problem)
    u = gf.solve_direct(system, "primal")
    field = gf.indicators(space, bench1.problem, u, "primal")
    rng = np.random.default_rng(2)
    ids = rng.permutation(mesh.n_triangles)
    totals = [gf.subset_total(field, ids[:k]) for k in range(0, mesh.n_triangles + 1, 4)]
    assert all(a <= b + 1e-15 for a, b in zip(totals, totals[1:]))


def _random_refine(mesh, rng):
    marked = rng.choice(mesh.n_triangles,
                        size=rng.integers(1, max(2, mesh.n_triangles // 3)),
                        replace=False)
    return gf.refine(mesh, marked)


def _new_and_refined(coarse, fine):
    counts = np.bincount(fine.parent, minlength=coarse.n_triangles)
    new_elems = np.nonzero(counts[fine.parent] > 1)[0]
    refined = np.nonzero(counts > 1)[0]
    return new_elems, refined


@pytest.mark.parametrize("which,domain,p", [
    ("primal", "unit-square", 1),
    ("primal", "unit-square", 2),
    ("primal", "zshape", 1),
    ("dual", "unit-square", 2),
])
def test_reduction_axiom(which, domain, p, bench1, bench2):
    """Estimator reduction with q_red = 2^(-1/4) on randomized refinements.

    Uses polynomial data (so that all quadratures are exact): the primal
    side of both benchmarks, and a polynomial dual variant.
    """
    if which == "dual":
        problem = ProblemData(domain=domain, b_conv=lambda x: x, c=1.0, div_b=2.0,
                              f=1.0, g=lambda x: x[..., 0])
    else:
        problem = bench1.problem if domain == "unit-square" else bench2.problem
    rng = np.random.default_rng(zlib.crc32(f"{which}-{domain}-p{p}".encode()))
    cases = 0
    mesh = gf.uniform_refine(gf.initial_mesh(domain), 2)
    while cases < 13:
        space = gf.build_space(mesh, p)
        fine_mesh = _random_refine(mesh, rng)
        fine_space = gf.build_space(fine_mesh, p)
        v = gf.DiscreteFunction(space, rng.standard_normal(space.dim))
        v_f = gf.prolong(v, fine_space)
        field_c = gf.indicators(space, problem, v, which)
        field_f = gf.indicators(fine_space, problem, v_f, which)
        new_elems, refined = _new_and_refined(mesh, fine_mesh)
        lhs = gf.subset_total(field_f, new_elems)
        rhs = QRED * gf.subset_total(field_c, refined)
        assert lhs <= rhs + 1e-8
        cases += 1
        mesh = fine_mesh
        if mesh.n_triangles > 600:
            mesh = gf.uniform_refine(gf.initial_mesh(domain), 2)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=1, max_value=3),
       st.sampled_from(["primal", "dual"]),
       st.sampled_from(["goal-singularity", "zshape-convection"]))
def test_indicators_quadratic_along_lines(seed, p, which, name):
    # every indicator is a sum of squares of terms affine in the
    # coefficients, so eta_sq(v + t d) is quadratic in t per element
    problem = gf.get_benchmark(name).problem
    rng = np.random.default_rng(seed)
    mesh = _random_refine(gf.uniform_refine(gf.initial_mesh(problem.domain), 1), rng)
    space = gf.build_space(mesh, p)
    ws = gf.EstimatorWorkspace(_geometry(space, problem), which)
    v, d = rng.standard_normal((2, space.dim))
    eta = np.array([ws.indicators(v + t * d).eta_sq for t in range(4)])
    third = eta[3] - 3.0 * eta[2] + 3.0 * eta[1] - eta[0]
    assert np.abs(third).max() <= 1e-10 * np.abs(eta).max()


def test_stability_observable(bench1):
    """|eta_h(U; v_h) - eta_H(U; v_H)| / |||v_h - v_H||| stays bounded and
    comparable across two refinement levels."""
    rng = np.random.default_rng(9)
    problem = bench1.problem
    max_ratios = []
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 2)
    for _ in range(2):
        space = gf.build_space(mesh, 1)
        fine_mesh = _random_refine(mesh, rng)
        fine_space = gf.build_space(fine_mesh, 1)
        system_f = gf.assemble(fine_space, problem)
        common = np.nonzero(np.bincount(fine_mesh.parent,
                                        minlength=mesh.n_triangles)[fine_mesh.parent] == 1)[0]
        common_coarse = fine_mesh.parent[common]
        ratios = []
        for _ in range(20):
            v_c = gf.DiscreteFunction(space, rng.standard_normal(space.dim))
            v_h = gf.prolong(v_c, fine_space)
            v_h = gf.DiscreteFunction(fine_space,
                                      v_h.values + 0.3 * rng.standard_normal(fine_space.dim))
            fc = gf.indicators(space, problem, v_c, "primal")
            fh = gf.indicators(fine_space, problem, v_h, "primal")
            num = abs(gf.subset_total(fh, common) - gf.subset_total(fc, common_coarse))
            den = gf.energy_norm(system_f, v_h.values - gf.prolong(v_c, fine_space).values)
            if den > 1e-13:
                ratios.append(num / den)
        max_ratios.append(max(ratios))
        mesh = gf.uniform_refine(mesh)
    assert all(np.isfinite(r) for r in max_ratios)
    assert max(max_ratios) <= 3.0 * min(max_ratios)


def test_reliability_observable(bench1):
    """|||u* - u_H*||| / eta_H(u_H*) bounded above across levels."""
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 2)
    ratios = []
    for _ in range(4):
        space = gf.build_space(mesh, 1)
        system = gf.assemble(space, bench1.problem)
        u = gf.solve_direct(system, "primal")
        err = energy_error_to_exact(space, bench1.problem, bench1.exact_grad_u, u)
        eta = gf.indicators(space, bench1.problem, u, "primal").total
        ratios.append(err / eta)
        mesh = gf.uniform_refine(mesh)
    assert max(ratios) < 10.0
    assert ratios[-1] <= 2.0 * ratios[0] + 1e-12


def test_indicator_total_consistency(bench1):
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 3)
    space = gf.build_space(mesh, 1)
    system = gf.assemble(space, bench1.problem)
    u = gf.solve_direct(system, "primal")
    field = gf.indicators(space, bench1.problem, u, "primal")
    assert np.all(field.eta_sq >= 0.0)
    assert field.total_sq == pytest.approx(field.eta_sq.sum(), rel=1e-12)


def test_workspace_geometry_reuse(bench1):
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 3)
    space = gf.build_space(mesh, 1)
    geo = _geometry(space, bench1.problem)
    ws = gf.EstimatorWorkspace(geo, "dual")
    v = gf.zero_function(space)
    one_shot = gf.indicators(space, bench1.problem, v, "dual")
    assert np.allclose(ws.indicators(v).eta_sq, one_shot.eta_sq, rtol=1e-14, atol=1e-300)


@pytest.mark.parametrize("name, p", [("goal-singularity", 1), ("zshape-convection", 3)])
def test_blocked_workspace_evaluates_as_a_fresh_one(name, p, monkeypatch):
    # small blocks make several, the last one short; a workspace evaluated
    # again gives the indicators of a fresh one bit for bit, on both sides
    from goafem import estimator

    problem = gf.get_benchmark(name).problem
    mesh = gf.uniform_refine(gf.initial_mesh(problem.domain), 3)
    mesh = gf.refine(mesh, np.arange(0, mesh.n_triangles, 3))
    space = gf.build_space(mesh, p)
    geo = EstimatorGeometry(space, gf.assemble(space, problem).elements)
    monkeypatch.setattr(estimator, "_BLOCK_VALUES", 5 * geo.elements.val.size)
    v = np.random.default_rng(p).standard_normal(space.dim)
    fresh = {}
    for which in ("primal", "dual"):
        used = gf.EstimatorWorkspace(geo, which)
        used.indicators(np.zeros(space.dim)), used.indicators(-v)
        assert [len(block) for block in used._kept[-2:]] == [5, mesh.n_triangles % 5]
        fresh[which] = gf.EstimatorWorkspace(geo, which).indicators(v).eta_sq
        assert used.indicators(v).eta_sq.tobytes() == fresh[which].tobytes()
    assert fresh["dual"].tobytes() != fresh["primal"].tobytes()


@pytest.mark.parametrize("p", [1, 2, 3])
def test_formed_and_kept_rows_give_the_same_indicators(p, monkeypatch):
    # a workspace's first evaluation forms each block's rows, its second
    # forms and keeps them, and the later ones read the kept rows: every
    # evaluation of an iterate has the same bits, on both sides
    from goafem import estimator

    problem = gf.get_benchmark("zshape-convection").problem
    mesh = gf.uniform_refine(gf.initial_mesh(problem.domain), 2)
    mesh = gf.refine(mesh, np.arange(0, mesh.n_triangles, 5))
    space = gf.build_space(mesh, p)
    geo = _geometry(space, problem)
    monkeypatch.setattr(estimator, "_BLOCK_VALUES", 7 * geo.elements.val.size)
    rng = np.random.default_rng(p)
    v, w = rng.standard_normal((2, space.dim))
    for which in ("primal", "dual"):
        ws = gf.EstimatorWorkspace(geo, which)
        formed = ws.indicators(v).eta_sq
        assert ws._kept is None
        second = ws.indicators(w).eta_sq
        assert len(ws._kept) == -(-mesh.n_triangles // 7)
        kept = ws.indicators(v).eta_sq
        assert kept.tobytes() == formed.tobytes()
        assert second.tobytes() == gf.EstimatorWorkspace(geo, which).indicators(w).eta_sq.tobytes()
        assert ws.indicators(w).eta_sq.tobytes() == second.tobytes()


def _reference_edge_terms(space, problem, glam):
    """Edge terms as computed per side, each side forming its own edge
    points, normal, midpoint, length and centroid: per side, in the order
    left sides of the interior edges, their right sides, then the Neumann
    sides, (tris, S, normal, x_in, weight factor, slot); per edge the
    length."""
    mesh = space.mesh
    tables = mesh.edge_tables
    edges = tables.edges
    labels = mesh.edge_labels
    t_pts, _ = interval_rule(2 * space.p + 2)
    tabs = edge_grad_tables(space.p, 2 * space.p + 2)
    nq_e = t_pts.shape[0]
    nb = space.basis.n

    def side_tensor(eids, side):
        slot = tables.sides[eids, side]
        tris, le = np.divmod(slot, 3)
        a = edges[eids, 0]
        b = edges[eids, 1]
        i1 = (le + 1) % 3
        i2 = (le + 2) % 3
        tv = mesh.triangles[tris]
        fwd = tv[np.arange(tris.size), i1] == a
        la = np.where(fwd, i1, i2)
        lb = np.where(fwd, i2, i1)
        t6 = tabs[la * 3 + lb].reshape(-1, nq_e * nb, 3)
        grad = np.matmul(t6, glam[tris]).reshape(-1, nq_e, nb, 2)
        pa = mesh.vertices[a]
        pb = mesh.vertices[b]
        x = pa[:, None, :] + t_pts[None, :, None] * (pb - pa)[:, None, :]
        dvec = pb - pa
        n = np.stack([dvec[:, 1], -dvec[:, 0]], axis=1)
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        cent = mesh.vertices[tv].mean(axis=1)
        flip = ((cent - 0.5 * (pa + pb)) * n).sum(axis=1) > 0.0
        n[flip] *= -1.0
        agrad = _apply_diffusion(problem.A, x, grad)
        S = np.matmul(agrad.reshape(-1, nq_e * nb, 2), n[:, :, None]).reshape(-1, nq_e, nb)
        x_in = x + 1e-6 * (cent[:, None, :] - x)
        return tris, S, n, x_in, np.linalg.norm(dvec, axis=1), slot

    int_ids = np.nonzero(labels < 0)[0]
    neu_ids = np.nonzero(labels == NEUMANN)[0]
    left, right = side_tensor(int_ids, 0), side_tensor(int_ids, 1)
    sides = [left[:4] + (0.5, left[5]), right[:4] + (0.5, right[5])]
    lengths = [left[4]]
    if neu_ids.size:
        neu = side_tensor(neu_ids, 0)
        sides.append(neu[:4] + (1.0, neu[5]))
        lengths.append(neu[4])
    return sides, np.concatenate(lengths)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", ["goal-singularity", "zshape-convection"])
def test_geometry_matches_per_side_reference(name, p):
    problem = gf.get_benchmark(name).problem
    result = gf.run(problem, gf.AdaptiveParams(p=p, max_levels=3))
    mesh = result.hierarchy.levels[-1]
    assert len(result.hierarchy) == 4 and mesh.n_triangles > gf.initial_mesh(
        problem.domain).n_triangles
    space = gf.build_space(mesh, p)
    geo = _geometry(space, problem)
    sides, elen = _reference_edge_terms(space, problem, grad_lambda(mesh))
    assert (len(sides) == 2) == (name == "goal-singularity")
    assert geo.n_int == sides[0][0].size
    assert np.array_equal(geo.tris, np.concatenate([s[0] for s in sides]))
    # a side reads its slot 3 t + i of the element-major rows: the flux
    # tensor, and the flux data's normal component at the trace points
    # (f_vec is zero on both benchmarks); the workspace's products are
    # element-minor, where the same side is slot i nt + t
    slot = np.concatenate([s[5] for s in sides])
    first, n_int = geo._first, geo.n_int
    nt = mesh.n_triangles
    assert np.array_equal(np.concatenate([first[:n_int], geo._right, first[n_int:]]),
                          slot % 3 * nt + slot // 3)
    el = geo.elements
    assert el.f_edge is None
    # at p = 1 with the constant A of the benchmarks the flux tensor holds
    # one row per edge, which equals the reference at every edge point
    nq_e = sides[0][1].shape[1]
    assert el.S.shape[2] == (1 if p == 1 else nq_e)
    S = np.broadcast_to(el.S[el.shape], (nt, 3, nq_e, el.S.shape[3]))
    flux = [np.einsum("xqd,xd->xq", eval_vector(problem.g_vec, s[3]), s[2]) for s in sides]
    for got, want in ((S, [s[1] for s in sides]), (el.g_edge, flux)):
        assert got.shape[:2] == (nt, 3)
        assert np.array_equal(got.reshape((-1,) + got.shape[2:])[slot], np.concatenate(want))
    sqrt_area = np.sqrt(mesh.areas)
    assert np.array_equal(geo.weight, np.concatenate([s[4] * sqrt_area[s[0]] for s in sides]))
    assert np.array_equal(geo.elen, elen)
    assert np.array_equal(sides[1][2], -sides[0][2])

    # each side's residual tensor, summed in place, is bitwise the one
    # formed as sign * conv + c_eff * val; it is the leading rows of the
    # workspace's buffer, followed by the edge terms of each element
    nq = el.val.shape[0]
    for which, sign, c_eff in (("primal", 1.0, el.c),
                               ("dual", -1.0, el.c - eval_scalar(problem.div_b, _points(space)))):
        R = sign * el.conv + c_eff[:, :, None] * el.val[None, :, :]
        if el.ahess is not None:
            R -= el.ahess[el.shape]
        RS = gf.EstimatorWorkspace(geo, which).rows(slice(None))
        assert np.array_equal(RS[:, :nq], R)
        assert np.array_equal(RS[:, nq:], el.S[el.shape].reshape(RS[:, nq:].shape))


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", ["goal-singularity", "zshape-convection"])
def test_fused_product_matches_separate_products(name, p):
    # one product per element on the buffer [R; S[shape]] gives the
    # element residual and the side fluxes of two separate products:
    # bitwise at p <= 2; at p = 3, (25 + 15) x 10 rows take another BLAS
    # path than 25 x 10 and 15 x 10, which may round the last bit
    problem = gf.get_benchmark(name).problem
    rng = np.random.default_rng(11)
    mesh = gf.uniform_refine(gf.initial_mesh(problem.domain), 4)
    for _ in range(4):
        mesh = _random_refine(mesh, rng)
    space = gf.build_space(mesh, p)
    geo = _geometry(space, problem)
    el = geo.elements
    nt, nq, nd = el.conv.shape
    coeffs = space.full(rng.standard_normal(space.dim))[space.cell_dofs][:, :, None]
    # one flux row per edge at p = 1, one per edge point at p >= 2
    nq_s = 1 if p == 1 else interval_rule(2 * p + 2)[0].size
    assert el.S.shape[1:] == (3, nq_s, nd)
    for which in ("primal", "dual"):
        RS = gf.EstimatorWorkspace(geo, which).rows(slice(None))
        assert RS.shape == (nt, nq + 3 * nq_s, nd)
        fused = np.matmul(RS, coeffs)
        separate = np.concatenate([np.matmul(RS[:, :nq].copy(), coeffs),
                                   np.matmul(el.S[el.shape].reshape(nt, -1, nd), coeffs)], axis=1)
        if p <= 2:
            assert np.array_equal(fused, separate)
        else:
            assert np.all(np.abs(fused - separate) <= 1e-13 * np.matmul(np.abs(RS), np.abs(coeffs)))


def _per_side_indicators(space, problem, which, v, el):
    """Squared indicators formed side by side from the per-side reference
    edge terms: one flux product per side, the element terms as they are,
    and the same additions in the same order as the workspace's."""
    mesh = space.mesh
    sides, elen = _reference_edge_terms(space, problem, grad_lambda(mesh))
    n_int = sides[0][0].size
    x = _points(space)

    def edge_sums(per_side):
        return np.concatenate([per_side[0] + per_side[1]] + per_side[2:])

    if which == "dual":
        sign, c_eff = -1.0, el.c - eval_scalar(problem.div_b, x)
        r0 = eval_scalar(problem.div_g_vec, x) - eval_scalar(problem.g, x)
        d_vec = problem.g_vec
    else:
        sign, c_eff = 1.0, el.c
        r0 = eval_scalar(problem.div_f_vec, x) - eval_scalar(problem.f, x)
        d_vec = problem.f_vec
    R = sign * el.conv + c_eff[:, :, None] * el.val[None, :, :]
    if el.ahess is not None:
        R -= el.ahess[el.shape]
    coeffs = v.full()[space.cell_dofs]
    r = np.matmul(R, coeffs[:, :, None])[:, :, 0] + r0
    eta_sq = (mesh.areas[:, None] * quadrature_weights(space) * r * r).sum(axis=1)

    jump = edge_sums([np.matmul(S, coeffs[t][:, :, None])[:, :, 0] for t, S, *_ in sides])
    if not is_zero(d_vec):
        jump -= edge_sums([np.einsum("xqd,xd->xq", eval_vector(d_vec, x_in), n)
                           for _, _, n, x_in, *_ in sides])
    _, w_e = interval_rule(2 * space.p + 2)
    contrib = elen * ((w_e[None, :] * jump) * jump).sum(axis=1)
    tris = np.concatenate([s[0] for s in sides])
    weight = np.concatenate([s[4] * np.sqrt(mesh.areas)[s[0]] for s in sides])
    np.add.at(eta_sq, tris, weight * np.concatenate([contrib[:n_int], contrib]))
    return eta_sq


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6), p=st.integers(min_value=1, max_value=3),
       which=st.sampled_from(["primal", "dual"]),
       name=st.sampled_from(["goal-singularity", "zshape-convection", "point-data"]))
def test_indicators_match_per_side_reference(seed, p, which, name):
    # bitwise at p <= 2; at p = 3 the element-major flux product rounds
    # some rows differently from the per-side one.  The reference
    # evaluates the problem data itself, so the point data checks the
    # pass's zero-order and flux rows on varying values
    problem = point_data_problem() if name == "point-data" else gf.get_benchmark(name).problem
    rng = np.random.default_rng(seed)
    mesh = gf.uniform_refine(gf.initial_mesh(problem.domain), 1)
    for _ in range(2):
        mesh = _random_refine(mesh, rng)
    space = gf.build_space(mesh, p)
    geo = _geometry(space, problem)
    v = gf.DiscreteFunction(space, rng.standard_normal(space.dim))
    got = gf.EstimatorWorkspace(geo, which).indicators(v).eta_sq
    want = _per_side_indicators(space, problem, which, v, geo.elements)
    if p <= 2:
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 1e-12 * want.max()


_DIFFUSION = {
    "identity": np.eye(2),
    "constant": np.array([[2.0, 0.5], [0.5, 1.0]]),
    "varying": lambda x: (1.0 + x[..., 0])[..., None, None] * np.eye(2),
}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       name=st.sampled_from(["goal-singularity", "zshape-convection"]),
       diffusion=st.sampled_from(list(_DIFFUSION)))
def test_one_flux_row_per_edge_at_p1_with_a_constant_diffusion(seed, name, diffusion):
    # at p = 1 with a constant A, A grad phi . n is constant along an edge:
    # the pass stores one row per edge, and it is the per-side reference at
    # every edge point, bit for bit.  A callable A varies along the edge,
    # so its rows keep every edge point
    problem = dataclasses.replace(gf.get_benchmark(name).problem, A=_DIFFUSION[diffusion])
    rng = np.random.default_rng(seed)
    mesh = gf.uniform_refine(gf.initial_mesh(problem.domain), 1)
    for _ in range(2):
        mesh = _random_refine(mesh, rng)
    space = gf.build_space(mesh, 1)
    el = _element_pass(space, problem)
    sides, _ = _reference_edge_terms(space, problem, grad_lambda(mesh))
    want = np.concatenate([s[1] for s in sides])
    nq_e = want.shape[1]
    nq_s = nq_e if diffusion == "varying" else 1
    assert el.S.shape[1:] == (3, nq_s, 3)
    got = el.S[el.shape].reshape(-1, nq_s, 3)[np.concatenate([s[5] for s in sides])]
    assert np.array_equal(np.broadcast_to(got, want.shape), want)


def test_records_with_a_varying_diffusion_match_the_per_side_reference(monkeypatch):
    # a whole run with A(x) = (1 + x_1) I, whose edge fluxes vary along the
    # edge: its records and marks are those of a run whose indicators come
    # from the per-side reference, float-hex
    from dataclasses import asdict

    from goafem import driver

    problem = dataclasses.replace(gf.get_benchmark("goal-singularity").problem,
                                  A=_DIFFUSION["varying"])
    params = gf.AdaptiveParams(p=1, max_cost=3e4)

    class ReferenceWorkspace:
        def __init__(self, geometry, which):
            self.geo, self.which = geometry, which

        def indicators(self, v):
            return gf.IndicatorField(_per_side_indicators(
                self.geo.space, problem, self.which, v, self.geo.elements))

    def fields(record):
        return {k: v.hex() if isinstance(v, float) else v
                for k, v in asdict(record).items() if k not in ("cum_time", "peak_rss_kib")}

    run = gf.run(problem, params)
    monkeypatch.setattr(driver, "EstimatorWorkspace", ReferenceWorkspace)
    reference = gf.run(problem, params)
    assert len(run.records) > 10 and run.records[-1].cum_cost >= 3e4
    assert [fields(r) for r in run.records] == [fields(r) for r in reference.records]
    assert all(np.array_equal(a, b) for a, b in zip(run.marked_history,
                                                     reference.marked_history, strict=True))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_matmul_into_a_transposed_view_is_the_contiguous_product_bit_for_bit(p):
    # the workspace writes each block's product into an element-minor
    # (rows, n) array through a transposed view, so that BLAS writes with
    # a stride; its bits must be those of the contiguous product, as must
    # those of a product into the block's columns of one (rows, nt) array.
    # The block shapes of the workspace at p: rows nq + 3 nq_s, with nq_s
    # = 1 (constant A at p = 1) or nq_e, several block lengths, the last
    # short
    nq, nd = triangle_tables(p, 2 * p + 2)[0].shape
    nq_e = interval_rule(2 * p + 2)[0].size
    rng = np.random.default_rng(p)
    for rows in sorted({nq + 3 * (1 if p == 1 else nq_e), nq + 3 * nq_e}):
        for n, nt in ((1, 3), (5, 23), (64, 200), (1000, 2501)):
            shape = (nt, rows, nd)
            buffer = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
            coeffs = rng.standard_normal((nt, nd))
            out = np.empty((rows, nt))
            blocks = np.empty((rows, nt))
            want = np.empty((nt, rows))
            for start in range(0, nt, n):
                sl = slice(start, start + n)
                np.matmul(buffer[sl], coeffs[sl, :, None], out=out[:, sl].T[:, :, None])
                block = np.empty((rows, len(coeffs[sl])))
                np.matmul(buffer[sl], coeffs[sl, :, None], out=block.T[:, :, None])
                blocks[:, sl] = block
                want[sl] = np.matmul(buffer[sl], coeffs[sl, :, None])[:, :, 0]
            assert np.ascontiguousarray(out.T).tobytes() == want.tobytes()
            assert np.ascontiguousarray(blocks.T).tobytes() == want.tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       name=st.sampled_from(["goal-singularity", "zshape-convection"]))
def test_side_table_adds_as_np_add_at(seed, name):
    # three gather-adds from the (3, nt) table of each element's sides, in
    # tris order with a zero slot for a missing side, are np.add.at over
    # the sides, bit for bit
    problem = gf.get_benchmark(name).problem
    rng = np.random.default_rng(seed)
    mesh = gf.initial_mesh(problem.domain)
    for _ in range(int(rng.integers(0, 4))):
        mesh = _random_refine(mesh, rng)
    geo = _geometry(gf.build_space(mesh, 1), problem)
    sides_per_element = np.bincount(geo.tris, minlength=mesh.n_triangles)
    assert geo._sides.shape == (3, mesh.n_triangles) and sides_per_element.max() <= 3
    assert np.array_equal((geo._sides < geo.tris.size).sum(axis=0), sides_per_element)
    eta_sq = rng.random(mesh.n_triangles) * 10.0 ** rng.integers(-10, 10, mesh.n_triangles)
    values = np.append(rng.standard_normal(geo.tris.size)
                       * 10.0 ** rng.integers(-10, 10, geo.tris.size), 0.0)
    want = eta_sq.copy()
    np.add.at(want, geo.tris, values[:-1])
    geo.add_sides(eta_sq, values)
    assert eta_sq.tobytes() == want.tobytes()


class _Counted:
    """Coefficient callable that counts its evaluations."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def test_coefficients_evaluated_once_per_level(monkeypatch):
    # blocks of 16 // 3 elements: the pass runs many blocks on this level
    monkeypatch.setattr(importlib.import_module("goafem.assemble"), "_CHUNK", 16)
    problem = ProblemData(
        domain="unit-square",
        b_conv=_Counted(lambda x: np.stack([x[..., 1], -x[..., 0]], axis=-1)),
        c=_Counted(lambda x: 1.0 + x[..., 0]),
        div_b=_Counted(lambda x: 0.0 * x[..., 0]),
        f=_Counted(lambda x: x[..., 0] * x[..., 1]),
        div_f_vec=_Counted(lambda x: x[..., 1]),
        g=_Counted(lambda x: np.sin(x[..., 0])),
        div_g_vec=_Counted(lambda x: np.cos(x[..., 1])))
    counted = ("b_conv", "c", "div_b", "f", "div_f_vec", "g", "div_g_vec")
    space = gf.build_space(gf.uniform_refine(gf.initial_mesh("unit-square"), 5), 2)
    assert space.mesh.n_triangles == 64
    system = gf.assemble(space, problem)
    assert [getattr(problem, name).calls for name in counted] == [1] * len(counted)
    # the estimator only reads the rows of the pass
    geo = EstimatorGeometry(space, system.elements)
    v = gf.DiscreteFunction(space, np.random.default_rng(4).standard_normal(space.dim))
    for which in ("primal", "dual"):
        gf.EstimatorWorkspace(geo, which).indicators(v)
    assert [getattr(problem, name).calls for name in counted] == [1] * len(counted)


def test_callable_diffusion_matches_constant():
    Amat = np.array([[2.0, 0.5], [0.5, 1.0]])
    data = dict(domain="zshape", b_conv=(1.0, 0.5), c=1.0, f=1.0, g=lambda x: x[..., 0],
                f_vec=(0.3, -0.2))
    const = ProblemData(A=Amat, **data)
    field = ProblemData(A=lambda x: np.broadcast_to(Amat, x.shape[:-1] + (2, 2)), **data)
    space = gf.build_space(gf.uniform_refine(gf.initial_mesh("zshape"), 2), 1)
    sys_c = gf.assemble(space, const)
    sys_f = gf.assemble(space, field)
    for M_c, M_f in ((sys_c.B, sys_f.B), (sys_c.A_sym, sys_f.A_sym)):
        assert abs(M_c - M_f).max() <= 1e-13 * abs(M_c).max()
    v = gf.DiscreteFunction(space, np.random.default_rng(3).standard_normal(space.dim))
    for which in ("primal", "dual"):
        eta_c = gf.indicators(space, const, v, which).eta_sq
        eta_f = gf.indicators(space, field, v, which).eta_sq
        assert np.allclose(eta_f, eta_c, rtol=1e-13, atol=0.0)


def test_callable_diffusion_at_p2_assembles_but_has_no_estimator():
    # A:Hess phi is formed only for a constant A: the assembly still
    # works with a callable A at p = 2, the estimator refuses it
    Amat = np.array([[2.0, 0.5], [0.5, 1.0]])
    data = dict(domain="zshape", f=1.0, g=1.0)
    const = ProblemData(A=Amat, **data)
    field = ProblemData(A=lambda x: np.broadcast_to(Amat, x.shape[:-1] + (2, 2)), **data)
    space = gf.build_space(gf.uniform_refine(gf.initial_mesh("zshape"), 1), 2)
    sys_c = gf.assemble(space, const)
    sys_f = gf.assemble(space, field)
    assert sys_c.elements.ahess is not None and sys_f.elements.ahess is None
    assert abs(sys_c.B - sys_f.B).max() <= 1e-13 * abs(sys_c.B).max()
    with pytest.raises(NotImplementedError, match="constant diffusion"):
        EstimatorGeometry(space, sys_f.elements)


def test_invalid_which(square_mesh, laplace):
    space = gf.build_space(square_mesh, 1)
    with pytest.raises(ValueError):
        gf.indicators(space, laplace, gf.zero_function(space), "adjoint")
