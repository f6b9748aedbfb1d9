import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goafem as gf
from goafem.mesh import _LOCAL_EDGES, DIRICHLET, NEUMANN, EdgeTables, _stable_argsort


def _labelled_sides(mesh, label):
    """The vertex pairs of the sides that carry ``label``."""
    tris, loc = np.divmod(np.flatnonzero(mesh.side_labels.ravel() == label), 3)
    return mesh.triangles[tris[:, None], _LOCAL_EDGES[loc]]


def test_initial_unit_square(square_mesh):
    assert square_mesh.n_vertices == 4
    assert square_mesh.n_triangles == 2
    assert square_mesh.side_labels.dtype == np.int8
    assert (square_mesh.side_labels >= 0).sum() == 4
    assert np.all(square_mesh.side_labels[square_mesh.side_labels >= 0] == DIRICHLET)
    assert gf.is_conforming(square_mesh)
    assert gf.min_angle(square_mesh) == pytest.approx(np.pi / 4)


def test_initial_zshape_boundary_labels(zshape_mesh):
    assert gf.is_conforming(zshape_mesh)
    # Dirichlet on conv{(-1,0),(0,0)} and conv{(0,0),(-1,-1)}, Neumann elsewhere
    dedges = _labelled_sides(zshape_mesh, DIRICHLET)
    dcoords = [tuple(sorted(map(tuple, zshape_mesh.vertices[e]))) for e in dedges]
    assert sorted(dcoords) == [
        ((-1.0, -1.0), (0.0, 0.0)),
        ((-1.0, 0.0), (0.0, 0.0)),
    ]
    assert (zshape_mesh.side_labels == NEUMANN).sum() == 7


def test_unknown_domain():
    with pytest.raises(ValueError):
        gf.initial_mesh("pentagon")


def test_refine_empty_marking(square_mesh):
    out = gf.refine(square_mesh, [])
    assert out.n_triangles == square_mesh.n_triangles
    assert np.array_equal(out.triangles, square_mesh.triangles)
    assert np.array_equal(out.vertices, square_mesh.vertices)
    assert np.array_equal(out.parent, np.arange(square_mesh.n_triangles))
    assert np.array_equal(out.side_labels, square_mesh.side_labels)
    assert out.new_vertex_edges.shape == (0, 2)


def test_refine_invalid_id(square_mesh):
    with pytest.raises(ValueError):
        gf.refine(square_mesh, [5])
    # a boolean mask would be read as the ids 0 and 1
    with pytest.raises(ValueError, match="boolean mask"):
        gf.refine(square_mesh, np.ones(square_mesh.n_triangles, dtype=bool))


def test_refine_rejects_float_ids(square_mesh):
    # 1.7 would be truncated to the id 1 and refine element 1
    with pytest.raises(ValueError, match="integer element ids"):
        gf.refine(square_mesh, np.array([1.7]))


def test_refine_one_triangle_hand_trace(square_mesh):
    # both refinement edges sit on the shared diagonal, so marking one
    # triangle bisects the neighbour too (closure removes the hanging node)
    out = gf.refine(square_mesh, [0])
    assert out.n_triangles == 4
    assert out.n_vertices == 5
    assert gf.is_conforming(out)
    # (a, b, c) = (2, 0, 1) and (0, 2, 3) with m = 4 at (0.5, 0.5): each
    # becomes (c, a, m), (b, c, m) in its own place
    assert out.triangles.tolist() == [[1, 2, 4], [0, 1, 4], [3, 0, 4], [2, 3, 4]]
    assert out.areas.tolist() == [0.25] * 4
    assert out.parent.tolist() == [0, 0, 1, 1]
    assert out.new_vertex_edges.tolist() == [[0, 2]]
    # the diagonal (a, b) was interior: each child keeps one labelled
    # side of its parent, (c, a) or (b, c), as its local edge 2
    assert out.side_labels.dtype == np.int8
    assert out.side_labels.tolist() == [[-1, -1, DIRICHLET]] * 4


def test_refine_double_bisection_hand_trace(square_mesh):
    mesh = gf.refine(gf.uniform_refine(square_mesh, 1), [0])
    assert mesh.triangles.tolist() == [[4, 1, 5], [2, 4, 5], [0, 1, 4], [3, 0, 4], [2, 3, 4]]
    # marking (4, 1, 5) splits its refinement edge (4, 1) at 7; the
    # closure then marks the refinement edge (0, 1) of (0, 1, 4), split at
    # 6, whose child (1, 4, 6) is bisected once more at 7
    out = gf.refine(mesh, [0])
    assert out.vertices[5:].tolist() == [[1.0, 0.5], [0.5, 0.0], [0.75, 0.25]]
    assert out.new_vertex_edges.tolist() == [[0, 1], [1, 4]]
    assert out.triangles.tolist() == [[5, 4, 7], [1, 5, 7], [2, 4, 5], [4, 0, 6],
                                      [6, 1, 7], [4, 6, 7], [3, 0, 4], [2, 3, 4]]
    # 3, 3, 2, 2, 3, 3, 1 and 1 bisections of a square's half
    assert out.areas.tolist() == [0.5 / 2 ** k for k in (3, 3, 2, 2, 3, 3, 1, 1)]
    assert out.parent.tolist() == [0, 0, 1, 2, 2, 2, 3, 4]
    # the boundary edges (1, 2) and (0, 1) are split at 5 and 6: their
    # halves (1, 5), (5, 2), (0, 6) and (6, 1) take their label
    d = DIRICHLET
    assert out.side_labels.tolist() == [[-1, -1, -1], [-1, -1, d], [-1, d, -1], [d, -1, -1],
                                        [-1, -1, d], [-1, -1, -1], [-1, -1, d], [-1, -1, d]]
    assert sorted(map(sorted, _labelled_sides(out, d).tolist())) == [
        [0, 3], [0, 6], [1, 5], [1, 6], [2, 3], [2, 5]]
    assert gf.is_conforming(out)


def test_refine_both_triangles_hand_trace(square_mesh):
    out = gf.refine(square_mesh, [0, 1])
    assert out.n_triangles == 4
    assert out.n_vertices == 5
    assert tuple(out.vertices[4]) == (0.5, 0.5)


def _bisections(coarse, fine):
    """Bisections from the parent in ``coarse`` to each element of
    ``fine``: each one halves the area, exactly on these meshes."""
    depth = np.log2(coarse.areas[fine.parent] / fine.areas)
    assert np.array_equal(depth, np.round(depth))
    return depth.astype(np.int64)


def test_generation_and_parent_links(square_mesh):
    # every child of a one-element marking is one generation below its parent
    out = gf.refine(square_mesh, [0])
    assert np.all(out.parent >= 0)
    assert np.all(_bisections(square_mesh, out) == 1)


def test_bisection_halves_area(square_mesh):
    mesh = square_mesh
    rng = np.random.default_rng(3)
    for _ in range(4):
        marked = rng.choice(mesh.n_triangles, size=max(1, mesh.n_triangles // 3), replace=False)
        fine = gf.refine(mesh, marked)
        assert set(_bisections(mesh, fine).tolist()) <= {0, 1, 2}
        mesh = fine


def test_refined_count_grows(square_mesh):
    fine = gf.refine(square_mesh, [1])
    assert fine.n_triangles > square_mesh.n_triangles


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=4),
       st.sampled_from(["unit-square", "zshape"]))
def test_conformity_under_random_marking(seeds, domain):
    mesh = gf.initial_mesh(domain)
    for seed in seeds:
        rng = np.random.default_rng(seed)
        marked = rng.choice(mesh.n_triangles,
                            size=rng.integers(1, mesh.n_triangles + 1), replace=False)
        mesh = gf.refine(mesh, marked)
        assert gf.is_conforming(mesh)
        assert gf.min_angle(mesh) >= np.pi / 4 - 1e-12


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=4),
       st.sampled_from(["unit-square", "zshape"]))
def test_refinement_keeps_coarse_free_vertices(seeds, domain):
    # the multigrid reads the free P1 dofs of every coarser level off the
    # finest space: refinement appends vertices and keeps their status
    mesh = gf.initial_mesh(domain)
    for seed in seeds:
        rng = np.random.default_rng(seed)
        marked = rng.choice(mesh.n_triangles,
                            size=rng.integers(1, mesh.n_triangles + 1), replace=False)
        fine = gf.refine(mesh, marked)
        assert gf.is_conforming(fine)
        assert np.array_equal(fine.vertices[:mesh.n_vertices], mesh.vertices)
        # the P1 free numbering of both meshes is a prefix of free_index
        coarse_index = gf.FeSpace(mesh, 1).free_index
        fine_index = gf.FeSpace(fine, 1).free_index
        for p in (1, 2, 3):
            index = gf.FeSpace(fine, p).free_index
            assert np.array_equal(index[:mesh.n_vertices], coarse_index)
            assert np.array_equal(index[:fine.n_vertices], fine_index)
        mesh = fine


def _random_refinements(domain, seeds):
    """Pairs (coarse, fine) of successive refine steps with random marks."""
    mesh = gf.initial_mesh(domain)
    for seed in seeds:
        rng = np.random.default_rng(seed)
        marked = rng.choice(mesh.n_triangles,
                            size=rng.integers(1, mesh.n_triangles + 1), replace=False)
        fine = gf.refine(mesh, marked)
        yield mesh, fine
        mesh = fine


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=4),
       st.sampled_from(["unit-square", "zshape"]))
def test_refinement_parents_generations_and_areas(seeds, domain):
    for mesh, fine in _random_refinements(domain, seeds):
        n_children = np.bincount(fine.parent, minlength=mesh.n_triangles)
        assert n_children.min() >= 1 and n_children.max() <= 4
        dgen = _bisections(mesh, fine)
        kept = n_children[fine.parent] == 1
        # an element is either carried over unchanged or bisected once or twice
        assert np.all(dgen[kept] == 0)
        assert np.array_equal(fine.triangles[kept], mesh.triangles[fine.parent[kept]])
        assert np.all((dgen[~kept] == 1) | (dgen[~kept] == 2))
        area_sum = np.bincount(fine.parent, weights=fine.areas, minlength=mesh.n_triangles)
        assert np.all(np.abs(area_sum - mesh.areas) <= 1e-14 * mesh.areas)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=4),
       st.sampled_from(["unit-square", "zshape"]))
def test_refinement_keeps_boundary_labels(seeds, domain):
    def labelled_edges(m):
        edges, labels = m.edge_tables.edges.tolist(), m.edge_labels.tolist()
        return {tuple(e): lab for e, lab in zip(edges, labels) if lab >= 0}

    for mesh, fine in _random_refinements(domain, seeds):
        # the coarse labelled edges, each split at its new vertex, if any
        expected = labelled_edges(mesh)
        for v, (a, b) in enumerate(fine.new_vertex_edges.tolist(), mesh.n_vertices):
            lab = expected.pop((min(a, b), max(a, b)), None)
            if lab is not None:
                expected[(min(a, v), max(a, v))] = expected[(min(v, b), max(v, b))] = lab
        assert labelled_edges(fine) == expected
        assert gf.is_conforming(fine)


def _sorted_edge_tables(mesh):
    """The edge tables of ``mesh`` from sorts: ``np.unique`` of the packed
    vertex pairs, and a stable sort of the edge ids for the sides."""
    nv = mesh.n_vertices
    raw = mesh.triangles[:, _LOCAL_EDGES].reshape(-1, 2)
    unique_keys, flat = np.unique(raw.min(axis=1) * nv + raw.max(axis=1), return_inverse=True)
    ne = unique_keys.size
    slots = np.argsort(flat, kind="stable")
    count = np.bincount(flat, minlength=ne)
    starts = np.cumsum(count) - count
    sides = -np.ones((ne, 2), dtype=np.int64)
    for side in range(2):
        has = count > side
        sides[has, side] = slots[starts[has] + side]
    edges = np.stack([unique_keys // nv, unique_keys % nv], axis=1)
    return EdgeTables(edges=edges, tri_edges=flat.reshape(-1, 3), sides=sides)


@pytest.mark.parametrize("bits", [0, 1, 15, 16, 17, 31, 32, 40, 62])
def test_stable_argsort_is_numpys_stable_argsort(bits):
    # keys of up to four 16-bit digits, with many repeats
    rng = np.random.default_rng(bits)
    keys = rng.integers(0, 2 ** bits, size=500, endpoint=True)[rng.integers(0, 200, size=3000)]
    assert np.array_equal(_stable_argsort(keys), np.argsort(keys, kind="stable"))
    assert _stable_argsort(keys[:0]).size == 0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=4),
       st.sampled_from(["unit-square", "zshape"]))
def test_edge_tables_are_those_of_the_sorts(seeds, domain):
    # one stable sort of the keys gives the edges, their ids and their
    # sides as np.unique and a second stable sort do
    for mesh, fine in _random_refinements(domain, seeds):
        for m in (mesh, fine):
            expected = _sorted_edge_tables(m)
            for name in EdgeTables._fields:
                got, want = getattr(m.edge_tables, name), getattr(expected, name)
                assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=4),
       st.sampled_from(["unit-square", "zshape"]))
def test_refine_reads_the_marks_as_a_set(seeds, domain):
    # repeated ids in any order refine as their sorted distinct ids do
    rng = np.random.default_rng(seeds)
    for mesh, _ in _random_refinements(domain, seeds):
        marked = rng.choice(mesh.n_triangles, size=int(rng.integers(1, 2 * mesh.n_triangles)))
        fine, expected = gf.refine(mesh, marked), gf.refine(mesh, np.unique(marked))
        for f in dataclasses.fields(fine):
            got, want = getattr(fine, f.name), getattr(expected, f.name)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_edge_local_index_is_opposite_vertex(zshape_mesh):
    # a side's slot 3 t + i names element t and its local edge i, the
    # edge opposite local vertex i
    mesh = gf.refine(gf.uniform_refine(zshape_mesh, 2), [0, 5, 9])
    tables = mesh.edge_tables
    edges, sides = tables.edges, tables.sides
    # every edge has a first side, and only the boundary edges lack a second
    assert np.all(sides[:, 0] >= 0)
    assert np.array_equal(np.flatnonzero(sides[:, 1] < 0), np.flatnonzero(mesh.edge_labels >= 0))
    two = sides[:, 1] >= 0
    assert np.all(sides[two, 0] < sides[two, 1])
    for side in range(2):
        ids = np.flatnonzero(sides[:, side] >= 0)
        tris, loc = np.divmod(sides[ids, side], 3)
        assert np.array_equal(tables.tri_edges[tris, loc], ids)
        opposite = mesh.triangles[tris, loc]
        assert np.all((opposite != edges[ids, 0]) & (opposite != edges[ids, 1]))


def test_uniform_refine_rejects_a_negative_count(square_mesh):
    # range(-3) is empty: the mesh would come back unrefined, silently
    assert gf.uniform_refine(square_mesh, 0) is square_mesh
    with pytest.raises(ValueError, match="non-negative"):
        gf.uniform_refine(square_mesh, -3)


def test_hanging_node_detected(square_mesh):
    # bisect one triangle by hand without fixing the neighbour: the new
    # vertex hangs on the neighbour's diagonal edge.  Every single side is
    # labelled, so only the hanging vertex makes the mesh non-conforming
    v = np.vstack([square_mesh.vertices, [[0.5, 0.5]]])
    tri = np.array([[1, 2, 4], [0, 1, 4], [0, 2, 3]])
    d = DIRICHLET
    bad = gf.Triangulation(
        vertices=v,
        triangles=tri.astype(np.int64),
        side_labels=np.array([[d, -1, d], [-1, d, d], [d, d, d]], dtype=np.int8),
        parent=-np.ones(3, dtype=np.int64),
    )
    assert not gf.is_conforming(bad)


@pytest.mark.parametrize("declared", ["duplicated", "omitted"])
def test_declared_boundary_must_equal_the_single_edges(square_mesh, declared):
    labels = square_mesh.side_labels.copy()
    if declared == "duplicated":
        # the interior diagonal, local edge 2 of element 0, labelled as well
        labels[0, 2] = DIRICHLET
    else:
        labels[0, 0] = -1
    bad = dataclasses.replace(square_mesh, side_labels=labels)
    assert not gf.is_conforming(bad)


def test_side_labels_need_one_label_per_local_edge(square_mesh):
    with pytest.raises(ValueError, match="shape"):
        dataclasses.replace(square_mesh, side_labels=square_mesh.side_labels.ravel())


def test_vertex_at_edge_midpoint_detected(square_mesh):
    # combinatorially valid: a separate triangle whose first vertex sits
    # exactly at the midpoint of the square's diagonal
    def with_flap(corner):
        v = np.vstack([square_mesh.vertices, [corner, [2.0, corner[1]], [2.0, 1.0]]])
        d = DIRICHLET
        return gf.Triangulation(
            vertices=v,
            triangles=np.array([[0, 1, 2], [0, 2, 3], [4, 5, 6]], dtype=np.int64),
            side_labels=np.array([[d, -1, d], [d, d, -1], [d, d, d]], dtype=np.int8),
            parent=-np.ones(3, dtype=np.int64),
        )

    assert not gf.is_conforming(with_flap([0.5, 0.5]))
    assert gf.is_conforming(with_flap([0.5, 0.25]))


def test_min_angle_uniform_refinements(square_mesh):
    # right isosceles triangles bisected at the hypotenuse reproduce the
    # same similarity class, so the minimum angle is pi/4 on every level
    mesh = square_mesh
    for _ in range(4):
        mesh = gf.uniform_refine(mesh)
        assert gf.min_angle(mesh) == pytest.approx(np.pi / 4)


def test_boundary_labels_preserved(zshape_mesh):
    fine = gf.uniform_refine(zshape_mesh, 2)
    assert gf.is_conforming(fine)
    pts = fine.vertices[_labelled_sides(fine, DIRICHLET)]
    # all Dirichlet sides lie on the two cut segments y=0 (x<=0) or y=x (x<=0)
    on_cut = (np.all(np.abs(pts[:, :, 1]) < 1e-14, axis=1)
              | np.all(np.abs(pts[:, :, 1] - pts[:, :, 0]) < 1e-14, axis=1))
    assert np.all(on_cut)
    total_d = np.sum(np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1))
    assert total_d == pytest.approx(1.0 + np.sqrt(2.0))


def test_hierarchy_bookkeeping(square_mesh):
    hier = gf.MeshHierarchy(square_mesh)
    mesh = gf.refine(square_mesh, [0])
    hier.append(mesh)
    assert len(hier) == 2
    assert hier.levels[0] is square_mesh and hier.finest is mesh
    assert mesh.new_vertex_edges.shape == (1, 2)
    assert set(mesh.new_vertex_edges[0]) == {0, 2}
    # only one refine step of the finest level may be appended
    for bad in (gf.uniform_refine(mesh, 2), mesh):
        with pytest.raises(ValueError):
            hier.append(bad)
    assert len(hier) == 2


def test_hierarchy_drops_the_edge_tables_of_coarser_levels():
    # nothing reads a coarser level's cached properties again; an access
    # computes them anew
    mesh = gf.uniform_refine(gf.initial_mesh("zshape"), 1)
    tables, labels, areas, kept = mesh.edge_tables, mesh.edge_labels, mesh.areas, mesh.kept
    hier = gf.MeshHierarchy(mesh)
    hier.append(gf.refine(mesh, [0]))
    assert not {"edge_tables", "edge_labels", "areas", "kept"} & set(vars(mesh))
    assert all(map(np.array_equal, mesh.edge_tables, tables))
    for got, want in ((mesh.edge_labels, labels), (mesh.areas, areas), (mesh.kept, kept)):
        assert np.array_equal(got, want)

