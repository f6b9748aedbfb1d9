import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goafem as gf
from goafem.basis import (LagrangeBasis, edge_grad_tables, lagrange_basis,
                          triangle_tables)
from goafem.multigrid import _p1_to_p_embedding
from goafem.quadrature import interval_rule, triangle_rule
from goafem.space import _parent_vertex_counts


def exact_monomial_integral(a, b):
    """int_T l1^a l2^b over the reference triangle = a! b! / (a+b+2)!."""
    from math import factorial

    return factorial(a) * factorial(b) / factorial(a + b + 2)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6, 7, 8])
def test_triangle_rule_exactness(degree):
    bary, w = triangle_rule(degree)
    assert w.sum() == pytest.approx(0.5, rel=1e-14)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = (w * bary[:, 1] ** a * bary[:, 2] ** b).sum()
            assert val == pytest.approx(exact_monomial_integral(a, b), rel=1e-13)


@pytest.mark.parametrize("degree", [1, 3, 5, 8])
def test_interval_rule_exactness(degree):
    t, w = interval_rule(degree)
    for k in range(degree + 1):
        assert (w * t ** k).sum() == pytest.approx(1.0 / (k + 1), rel=1e-13)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_basis_nodal_property(p):
    basis = lagrange_basis(p)
    vals = basis.eval(basis.nodes)
    assert np.allclose(vals, np.eye(basis.n), atol=1e-13)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_basis_partition_of_unity(p):
    basis = lagrange_basis(p)
    rng = np.random.default_rng(0)
    lam12 = rng.dirichlet(np.ones(3), size=40)
    vals = basis.eval(lam12)
    assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-12)
    grads = basis.grad_bary(lam12)
    # the gradient of the constant 1 vanishes for any direction with
    # dl0 + dl1 + dl2 = 0
    g = grads.sum(axis=1)
    assert np.allclose(g - g[:, :1], 0.0, atol=1e-11)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_reference_tables_are_fresh_evaluations(p):
    degree = 2 * p + 2
    fresh = LagrangeBasis(p)
    bary = triangle_rule(degree)[0]
    t = interval_rule(degree)[0]
    edge = edge_grad_tables(p, degree)
    tables = triangle_tables(p, degree) + (edge,)
    expected = [fresh.eval(bary), fresh.grad_bary(bary), fresh.hess_bary(bary)]
    for got, want in zip(tables, expected):
        assert np.array_equal(got, want)
    for a in range(3):
        for b in range(3):
            bpts = np.zeros((t.shape[0], 3))
            if a != b:
                bpts[:, a] = 1.0 - t
                bpts[:, b] = t
                assert np.array_equal(edge[3 * a + b], fresh.grad_bary(bpts))
            else:
                assert not edge[3 * a + b].any()
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[...] = 0.0


def test_reference_tables_built_once_per_run(bench1, monkeypatch):
    # the tables at quadrature points are built once; prolong evaluates
    # the basis at the fine dof points of every level and is not cached
    calls = Counter()
    for name in ("eval", "grad_bary", "hess_bary"):
        def counted(self, bary, _orig=getattr(LagrangeBasis, name), _name=name):
            calls[_name] += 1
            return _orig(self, bary)
        monkeypatch.setattr(LagrangeBasis, name, counted)
    triangle_tables.cache_clear()
    edge_grad_tables.cache_clear()
    result = gf.run(bench1.problem, gf.AdaptiveParams(p=2, max_levels=4))
    levels = len(result.records)
    assert levels == 5
    assert triangle_tables.cache_info().currsize == 1
    assert triangle_tables.cache_info().misses == 1
    assert edge_grad_tables.cache_info().currsize == 1
    assert edge_grad_tables.cache_info().misses == 1
    # six directed edges, one triangle table; primal and dual prolongations
    assert calls == {"grad_bary": 7, "hess_bary": 1, "eval": 1 + 2 * (levels - 1)}


def test_basis_invalid_degree():
    with pytest.raises(ValueError):
        lagrange_basis(4)


def test_space_dims_unit_square(square_mesh):
    assert gf.build_space(square_mesh, 1).dim == 0
    assert gf.build_space(square_mesh, 2).dim == 1
    refined = gf.uniform_refine(square_mesh)
    assert gf.build_space(refined, 1).dim == 1


def test_space_degree_range(square_mesh):
    with pytest.raises(ValueError):
        gf.build_space(square_mesh, 0)
    with pytest.raises(ValueError):
        gf.build_space(square_mesh, 4)


def _node_coords(space):
    """Physical coordinates of every Lagrange node: its ``basis.nodes`` row,
    at its local index in the element ``dof_owners()`` names, applied to
    that element's vertices.  x and y take the same operations, so a node
    between two vertices on the diagonal x = y has x == y exactly."""
    owner, local = space.dof_owners()
    verts = space.mesh.vertices[space.mesh.triangles[owner]]
    return (space.basis.nodes[local][:, :, None] * verts).sum(axis=1)


def test_dirichlet_dofs_zshape(zshape_mesh):
    space = gf.build_space(zshape_mesh, 1)
    # constrained: the reentrant corner and the two cut endpoints
    assert space.dim == 6
    space2 = gf.build_space(zshape_mesh, 2)
    # 9 vertices + 15 edges, minus 3 Dirichlet vertices and the two cut
    # edge midpoints
    assert space2.dim == 19
    # free_index is -1 exactly on the dofs of the two cut segments and
    # numbers the other dofs in order
    for p in (1, 2, 3):
        space = gf.build_space(gf.refine(zshape_mesh, [0, 3]), p)
        x, y = _node_coords(space).T
        on_cut = ((y == 0.0) | (x == y)) & (x <= 0.0)
        assert np.array_equal(space.free_index < 0, on_cut)
        assert np.array_equal(space.free_index[space.free_dofs], np.arange(space.n_free))


def test_discrete_function_shape(square_mesh):
    space = gf.build_space(square_mesh, 2)
    with pytest.raises(ValueError):
        gf.DiscreteFunction(space, np.zeros(3))
    f = gf.zero_function(space)
    assert f.full().shape == (space.n_dofs,)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_prolongation_preserves_energy(p, laplace):
    rng = np.random.default_rng(7)
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 2)
    space = gf.build_space(mesh, p)
    sys_c = gf.assemble(space, laplace)
    fine_mesh = gf.refine(mesh, rng.choice(mesh.n_triangles, size=3, replace=False))
    fine_space = gf.build_space(fine_mesh, p)
    sys_f = gf.assemble(fine_space, laplace)
    for _ in range(5):
        u = gf.DiscreteFunction(space, rng.standard_normal(space.dim))
        uf = gf.prolong(u, fine_space)
        nc = gf.energy_norm(sys_c, u)
        nf = gf.energy_norm(sys_f, uf)
        assert nf == pytest.approx(nc, rel=1e-10)


def test_prolongation_requires_matching_degree(square_mesh):
    space1 = gf.build_space(square_mesh, 1)
    fine = gf.refine(square_mesh, [0])
    space2f = gf.build_space(fine, 2)
    with pytest.raises(ValueError):
        gf.prolong(gf.zero_function(space1), space2f)


def test_prolongation_rejects_an_unrelated_coarse_mesh():
    # the fine mesh must be one refine step of the coarse one
    square = gf.initial_mesh("unit-square")
    coarse = gf.build_space(gf.uniform_refine(square, 4), 1)
    u = gf.DiscreteFunction(coarse, np.ones(coarse.n_free))
    fine = gf.build_space(gf.refine(gf.uniform_refine(square, 2), [0, 3]), 1)
    with pytest.raises(ValueError, match="refine step"):
        gf.prolong(u, fine)


def test_prolongation_rejects_a_coarse_mesh_with_more_elements_than_parents():
    # every coarse element must be a parent: a duplicated triangle is not
    square = gf.uniform_refine(gf.initial_mesh("unit-square"), 2)
    rows = np.append(np.arange(square.n_triangles), 0)
    coarse = dataclasses.replace(square, triangles=square.triangles[rows],
                                 side_labels=square.side_labels[rows], parent=square.parent[rows])
    space = gf.build_space(coarse, 1)
    u = gf.DiscreteFunction(space, np.ones(space.n_free))
    fine = gf.build_space(gf.refine(square, [0, 3]), 1)
    with pytest.raises(ValueError, match="refine step of a mesh of 9 elements"):
        gf.prolong(u, fine)


@pytest.mark.parametrize("p", [2, 3])
def test_prolongation_rejects_a_coarse_mesh_whose_elements_are_not_the_parents(p):
    # the same elements in another order have the right sizes, but a
    # parent id then names an element that does not hold its child
    square = gf.uniform_refine(gf.initial_mesh("unit-square"), 2)
    coarse = dataclasses.replace(square, triangles=np.roll(square.triangles, 1, axis=0),
                                 side_labels=np.roll(square.side_labels, 1, axis=0))
    space = gf.build_space(coarse, p)
    u = gf.DiscreteFunction(space, np.ones(space.n_free))
    fine = gf.build_space(gf.refine(square, [0, 3]), p)
    with pytest.raises(ValueError, match="neither a vertex nor an edge midpoint"):
        gf.prolong(u, fine)


def _row_sum_cases(rng, width):
    """(rows, width) arrays of random signs and magnitudes over 40 decades
    mixed with +0.0 and -0.0, a row of -0.0 among them: C-contiguous, a
    strided column view of a wider array, and the transposed view of an
    element-minor (width, rows) array."""
    x = rng.standard_normal((60, width)) * 10.0 ** rng.integers(-20, 20, size=(60, width))
    zeros = rng.random(x.shape) < 0.25
    x[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    x[0] = -0.0
    wide = np.full((60, 2 * width + 3), np.nan)
    wide[:, 1:2 * width + 1:2] = x
    return x, wide[:, 1:2 * width + 1:2], np.ascontiguousarray(x.T).T


@pytest.mark.parametrize("width", list(range(1, 41)) + [64, 127, 128, 129, 300])
def test_row_sums_are_numpys_row_sums_bit_for_bit(width):
    # the indicators sum their element-minor (points, elements) terms
    # with .sum(axis=0), and the per-side reference of test_estimator
    # sums its (elements, points) terms the same way: numpy adds the
    # points of each element in order from +0.0, at any number of points,
    # sign of zero included, on every layout of the rows.  prolong sums
    # contiguous rows with .sum(axis=1); a strided view of them keeps
    # those bits.
    rng = np.random.default_rng(width)
    for _ in range(5):
        contiguous, *views = _row_sum_cases(rng, width)
        for x in (contiguous, *views):
            in_order = np.zeros(x.shape[0])
            for column in x.T:
                in_order += column
            got = np.ascontiguousarray(x.T).sum(axis=0)
            assert got.tobytes() == in_order.tobytes()
            assert np.array_equal(np.signbit(got), np.signbit(in_order))
        strided = views[0]
        assert strided.sum(axis=1).tobytes() == contiguous.sum(axis=1).tobytes()


def _point_values(fn, pts):
    """Values of ``fn`` at points inside its elements, located by testing
    every element (independent of the parent links)."""
    space = fn.space
    mesh = space.mesh
    P = mesh.vertices[mesh.triangles]
    d1 = P[:, 1] - P[:, 0]
    d2 = P[:, 2] - P[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    r = pts[:, None, :] - P[None, :, 0]
    l1 = (r[..., 0] * d2[:, 1] - r[..., 1] * d2[:, 0]) / det
    l2 = (d1[:, 0] * r[..., 1] - d1[:, 1] * r[..., 0]) / det
    bary = np.stack([1.0 - l1 - l2, l1, l2], axis=-1)
    inside = (bary >= -1e-12).all(axis=-1)
    assert inside.any(axis=1).all()
    elem = inside.argmax(axis=1)
    vals = space.basis.eval(bary[np.arange(pts.shape[0]), elem])
    return (vals * fn.full()[space.cell_dofs[elem]]).sum(axis=1)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([1, 2, 3]),
       st.sampled_from(["unit-square", "zshape"]))
def test_prolongation_is_exact_at_random_points(seed, p, domain):
    rng = np.random.default_rng(seed)
    mesh = gf.uniform_refine(gf.initial_mesh(domain), 1)
    marked = rng.choice(mesh.n_triangles, size=rng.integers(1, mesh.n_triangles + 1),
                        replace=False)
    fine = gf.refine(mesh, marked)
    space = gf.build_space(mesh, p)
    u = gf.DiscreteFunction(space, rng.standard_normal(space.n_free))
    uf = gf.prolong(u, gf.build_space(fine, p))
    # random points strictly inside random fine elements
    elem = rng.integers(0, fine.n_triangles, size=50)
    bary = rng.dirichlet(np.ones(3), size=50) * 0.98 + 0.02 / 3.0
    pts = np.einsum("nk,nkd->nd", bary, fine.vertices[fine.triangles[elem]])
    coarse_vals = _point_values(u, pts)
    assert np.allclose(_point_values(uf, pts), coarse_vals, rtol=0.0,
                       atol=1e-12 * max(1.0, np.abs(u.values).max()))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from(["unit-square", "zshape"]),
       st.integers(min_value=0, max_value=2))
def test_p1_prolongation_keeps_vertex_values_and_takes_edge_means_bit_for_bit(seed, domain,
                                                                              steps):
    # at p = 1 prolong applies the refine step's P1 matrix: an old vertex
    # keeps its value, a new one takes the mean of the ends of the edge it
    # bisects (zero at a Dirichlet end), with the weights 1 and 1/2 exactly
    rng = np.random.default_rng(seed)
    mesh = gf.uniform_refine(gf.initial_mesh(domain), 1)
    for _ in range(steps + 1):
        coarse = mesh
        mesh = gf.refine(coarse, rng.choice(coarse.n_triangles, replace=False,
                                            size=rng.integers(1, coarse.n_triangles + 1)))
    space = gf.build_space(coarse, 1)
    values = rng.standard_normal(space.n_free) * 10.0 ** rng.integers(-8, 8, size=space.n_free)
    u = gf.DiscreteFunction(space, values).full()
    fine = gf.prolong(gf.DiscreteFunction(space, values), gf.build_space(mesh, 1)).full()
    a, b = mesh.new_vertex_edges.T
    assert fine[:coarse.n_vertices].tobytes() == u.tobytes()
    assert fine[coarse.n_vertices:].tobytes() == (0.5 * (u[a] + u[b])).tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from(["unit-square", "zshape"]),
       st.integers(min_value=1, max_value=3))
def test_parent_counts_place_fine_vertices_and_keep_old_vertex_values_exactly(seed, domain,
                                                                            steps):
    # refine forms a midpoint as 0.5 (a + b), so counts / 2 applied to the
    # parent's vertices gives every fine vertex bit for bit; at an old
    # vertex the p >= 2 prolongation evaluates the coarse basis at a unit
    # vector and keeps the coarse value exactly
    rng = np.random.default_rng(seed)
    mesh = gf.uniform_refine(gf.initial_mesh(domain), 1)
    for _ in range(steps):
        coarse = mesh
        mesh = gf.refine(coarse, rng.choice(coarse.n_triangles, replace=False,
                                            size=rng.integers(1, coarse.n_triangles + 1)))
        counts = _parent_vertex_counts(mesh, coarse.triangles)
        parent_verts = coarse.vertices[coarse.triangles[mesh.parent]]
        placed = np.einsum("jit,tid->tjd", counts, parent_verts) / 2
        assert np.array_equal(placed, mesh.vertices[mesh.triangles])
    for p in (2, 3):
        space = gf.build_space(coarse, p)
        u = gf.DiscreteFunction(space, rng.standard_normal(space.n_free))
        fine = gf.prolong(u, gf.build_space(mesh, p)).full()
        assert fine[:coarse.n_vertices].tobytes() == u.full()[:coarse.n_vertices].tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([2, 3]),
       st.sampled_from(["unit-square", "zshape"]))
def test_embedding_is_the_p1_interpolant(seed, p, domain):
    # E v is the P1 function of the free vertex values v, read at the
    # order-p Lagrange nodes
    rng = np.random.default_rng(seed)
    mesh = gf.uniform_refine(gf.initial_mesh(domain), 1)
    for _ in range(rng.integers(0, 3)):
        mesh = gf.refine(mesh, rng.choice(mesh.n_triangles,
                                          size=rng.integers(1, mesh.n_triangles + 1),
                                          replace=False))
    space = gf.build_space(mesh, p)
    p1 = gf.build_space(mesh, 1)
    v = gf.DiscreteFunction(p1, rng.standard_normal(p1.n_free))
    expected = _point_values(v, _node_coords(space)[space.free_dofs])
    assert np.allclose(_p1_to_p_embedding(space) @ v.values, expected, rtol=0.0,
                       atol=1e-14 * max(1.0, np.abs(v.values).max()))
