"""A level computes element rows only for its new elements.

The rows of the elements refine kept are copied from the finished level's
own element data; they must be, bit for bit, the rows a full pass over
the level gives.  Nothing else of the finished level is carried.  The
rows formed from an element's shape alone are stored once per shape
class, and the classes are keyed afresh from every element of a level: a
class that holds a kept element copies its rows from its parent's class,
and the class ids and tables are those of a full pass, bit for bit; read
through the class ids they are the rows a pass with one class per
element gives."""

import dataclasses
import importlib
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goafem as gf
from conftest import point_data_problem
from goafem.assemble import ElementData, _element_pass
from goafem.problem import is_zero

# the arrays of the element data; ``conv_by_class`` says how ``conv`` is read
ELEMENT_FIELDS = [f.name for f in dataclasses.fields(ElementData) if f.name != "conv_by_class"]
# the rows stored once per shape class, read as table[shape]
CLASS_FIELDS = ("a_loc", "S", "ahess")
ASSEMBLE = importlib.import_module("goafem.assemble")


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _same_rows(a, b):
    """Both None, or both arrays with the same bits."""
    return a is b is None or (a is not None and b is not None and _bits(a) == _bits(b))


def _rows(elements, name):
    """The rows ``name`` of ``elements``, one per element where they are
    stored per shape class."""
    if name == "conv":
        return elements.conv_rows()
    rows = getattr(elements, name)
    return rows[elements.shape] if name in CLASS_FIELDS and rows is not None else rows


def _same_csr(a, b):
    return all(_bits(getattr(a, name)) == _bits(getattr(b, name))
               for name in ("indptr", "indices", "data"))


def _random_meshes(domain, seed, n):
    """An initial mesh and ``n`` refine steps of random markings, from a
    single element up to all of them."""
    rng = np.random.default_rng(seed)
    meshes = [gf.uniform_refine(gf.initial_mesh(domain), 1)]
    for _ in range(n):
        mesh = meshes[-1]
        k = int(rng.integers(1, mesh.n_triangles + 1))
        meshes.append(gf.refine(mesh, rng.choice(mesh.n_triangles, size=k, replace=False)))
    return meshes


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       name=st.sampled_from(["goal-singularity", "zshape-convection", "point-data",
                             "callable-A"]),
       p=st.integers(min_value=1, max_value=3))
def test_carried_rows_match_a_full_pass(seed, name, p):
    # the point data checks the carry of c_dual, f_res, g_res and f_edge
    # on values that vary from row to row, the callable A that of class
    # rows keyed by vertices
    problem = (point_data_problem() if name == "point-data"
               else _callable_diffusion() if name == "callable-A"
               else gf.get_benchmark(name).problem)
    meshes = _random_meshes(problem.domain, seed, 3)
    elements = None
    for mesh in meshes:
        space = gf.build_space(mesh, p)
        previous = elements
        system = gf.assemble(space, problem, elements)
        full = gf.assemble(space, problem)

        # every row, the estimator's zero-order, S, ahess and flux rows
        # included, and the class ids and class tables
        assert (system.elements.ahess is None) == (p == 1 or name == "callable-A")
        assert (system.elements.f_edge is None) == is_zero(problem.f_vec)
        assert system.elements.g_edge is not None
        assert system.elements.conv_by_class == full.elements.conv_by_class == (
            not callable(problem.b_conv))
        for name_ in ELEMENT_FIELDS:
            assert _same_rows(getattr(system.elements, name_), getattr(full.elements, name_))
        assert _same_csr(system.B, full.B) and _same_csr(system.A_sym, full.A_sym)
        assert _bits(system.F_vec) == _bits(full.F_vec)
        assert _bits(system.G_vec) == _bits(full.G_vec)
        # what was carried is dropped once copied
        if previous is not None:
            assert all(getattr(previous, n) is None for n in ELEMENT_FIELDS[1:])
        elements = system.elements


def _callable_diffusion():
    """goal-singularity with A given as a function of the point."""
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    return dataclasses.replace(gf.get_benchmark("goal-singularity").problem,
                               A=lambda x: np.broadcast_to(A, x.shape[:-1] + (2, 2)))


def _one_class_per_element(tv, xy, by_vertices):
    return np.arange(len(tv)), np.arange(len(tv))


def _perturbed(mesh, rng):
    """``mesh`` with a random half of its vertices moved by up to 1% of
    the shortest edge, so that some shapes still repeat and others not."""
    edges = mesh.vertices[mesh.triangles] - mesh.vertices[np.roll(mesh.triangles, 1, axis=1)]
    h = np.linalg.norm(edges, axis=2).min()
    move = rng.random(mesh.n_vertices) < 0.5
    shift = 0.01 * h * rng.uniform(-1.0, 1.0, size=mesh.vertices.shape) * move[:, None]
    return dataclasses.replace(mesh, vertices=mesh.vertices + shift)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       name=st.sampled_from(["goal-singularity", "zshape-convection"]),
       p=st.integers(min_value=1, max_value=3), perturb=st.booleans(),
       chunk=st.integers(min_value=3, max_value=40))
def test_shape_classes_give_the_rows_of_each_element(seed, name, p, perturb, chunk):
    # the class key holds every bit a class row is formed from: read
    # through the class ids, every row is the one a pass with one class
    # per element gives, in blocks of chunk // 3 elements, where a class
    # met by several blocks forms its rows in the first
    problem = gf.get_benchmark(name).problem
    mesh = _random_meshes(problem.domain, seed, 2)[-1]
    if perturb:
        mesh = _perturbed(mesh, np.random.default_rng(seed))
    space = gf.build_space(mesh, p)
    with mock.patch.object(ASSEMBLE, "_CHUNK", chunk):
        elements = _element_pass(space, problem)
        with mock.patch.object(ASSEMBLE, "_shape_classes", _one_class_per_element):
            each = _element_pass(space, problem)
    assert len(each.a_loc) == len(elements) == mesh.n_triangles
    assert elements.shape.dtype == np.int32
    assert np.array_equal(np.unique(elements.shape), np.arange(len(elements.a_loc)))
    for name_ in ELEMENT_FIELDS:
        if name_ != "shape":
            assert _same_rows(_rows(elements, name_), _rows(each, name_))


def _keys(tv, verts, by_vertices):
    """The bits of each element's class key: its edge vectors p2 - p1,
    p0 - p2 and p1 - p0, its edge orientations and, with ``by_vertices``,
    its vertices."""
    edges = verts[:, [2, 0, 1]] - verts[:, [1, 2, 0]]
    up = tv[:, [1, 2, 0]] < tv[:, [2, 0, 1]]
    return [e.tobytes() + u.tobytes() + (v.tobytes() if by_vertices else b"")
            for e, u, v in zip(edges, up, verts)]


# an element and its near twins: the same vertices with one edge
# orientation flipped (vertex id 11 -> 13 flips 11 < 12 alone), and the
# vertex (0, 0) moved to (2^-1074, 0), which moves the x of p0 - p2 by one
# ulp (0 -> 2^-1074) and leaves p1 - p0 = (1, 0) and p2 - p1 as they are
_TWIN_TV = np.array([[10, 11, 12], [10, 13, 12], [10, 11, 12]])
_TWIN_VERTS = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]] * 3)
_TWIN_VERTS[2, 0, 0] = np.nextafter(0.0, 1.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       name=st.sampled_from(["goal-singularity", "zshape-convection"]),
       perturb=st.booleans(), by_vertices=st.booleans())
def test_shape_classes_group_the_elements_of_equal_keys(seed, name, perturb, by_vertices):
    # two elements share a class iff their keys have the same bits; the
    # ids run from 0 to nc - 1 and each class's first element is its
    # smallest.  The mesh's elements come shuffled, with the near twins
    # and an exact copy of the first twin among them
    rng = np.random.default_rng(seed)
    mesh = _random_meshes(gf.get_benchmark(name).problem.domain, seed, 2)[-1]
    if perturb:
        mesh = _perturbed(mesh, rng)
    tv = np.concatenate([mesh.triangles, _TWIN_TV, _TWIN_TV[:1]])
    verts = np.concatenate([mesh.vertices[mesh.triangles], _TWIN_VERTS, _TWIN_VERTS[:1]])
    order = rng.permutation(len(tv))
    tv, verts = tv[order], verts[order]
    first, ids = ASSEMBLE._shape_classes(tv, verts.transpose(2, 1, 0), by_vertices)

    keys = _keys(tv, verts, by_vertices)
    assert len(set(keys)) == len(set(zip(keys, ids.tolist()))) == first.size
    assert np.array_equal(np.unique(ids), np.arange(first.size))
    assert np.array_equal(first, [np.flatnonzero(ids == c)[0] for c in range(first.size)])
    # the twins: three classes, and the copy in the first twin's
    twins = [np.flatnonzero(order == len(mesh.triangles) + k)[0] for k in range(4)]
    assert len(set(ids[twins[:3]])) == 3 and ids[twins[0]] == ids[twins[3]]


@pytest.mark.parametrize("name, p", [("goal-singularity", 1), ("zshape-convection", 3)])
def test_carried_class_tables_hold_each_shape_once(name, p, monkeypatch):
    # the classes are keyed from the level's own mesh, so a kept shape
    # and a new element of it share one class: after every assemble of a
    # run, the tables have as many classes as a fresh pass finds
    driver = importlib.import_module("goafem.driver")
    counts = []

    def assemble(space, problem, previous=None):
        system = ASSEMBLE.assemble(space, problem, previous)
        counts.append((len(system.elements.a_loc), len(_element_pass(space, problem).a_loc)))
        return system

    monkeypatch.setattr(driver, "assemble", assemble)
    spec = gf.get_benchmark(name)
    gf.run(spec.problem, gf.AdaptiveParams(p=p, max_cost=2e4))
    assert len(counts) > 5
    assert all(carried == fresh for carried, fresh in counts)


def test_callable_diffusion_gives_one_class_per_element():
    # a callable A is evaluated at the element points: its vertices are
    # part of the key
    space = gf.build_space(gf.uniform_refine(gf.initial_mesh("unit-square"), 6), 2)
    elements = gf.assemble(space, _callable_diffusion()).elements
    assert len(elements.a_loc) == len(elements.S) == len(elements) == 128
    assert np.array_equal(np.sort(elements.shape), np.arange(len(elements)))


def test_classes_of_kept_elements_copy_their_rows(monkeypatch):
    # a class that holds a kept element copies its rows from the finished
    # level; with a callable A every element is its own class, so only
    # the new elements form class rows, from the frame that their block
    # forms once
    problem = _callable_diffusion()
    mesh = gf.uniform_refine(gf.initial_mesh(problem.domain), 4)
    previous = gf.assemble(gf.build_space(mesh, 1), problem).elements
    fine = gf.refine(mesh, [0, 5])
    formed, frames = [], []
    gram, frame = ASSEMBLE._weighted_gram, ASSEMBLE._frame

    def counted(scale, agrad, grad):
        formed.append(len(scale))
        return gram(scale, agrad, grad)

    def counted_frame(space, rows, dbary):
        frames.append(len(rows))
        return frame(space, rows, dbary)

    monkeypatch.setattr(ASSEMBLE, "_weighted_gram", counted)
    monkeypatch.setattr(ASSEMBLE, "_frame", counted_frame)
    gf.assemble(gf.build_space(fine, 1), problem, previous)
    assert 0 < sum(formed) == np.count_nonzero(~fine.kept) < fine.n_triangles
    assert frames == [sum(formed)]


@pytest.mark.parametrize("k", [2, 4, 6])
def test_uniform_meshes_have_few_shape_classes(k):
    # newest-vertex bisection makes few shapes: 8 classes on these meshes
    problem = gf.get_benchmark("goal-singularity").problem
    space = gf.build_space(gf.uniform_refine(gf.initial_mesh("unit-square"), k), 1)
    elements = gf.assemble(space, problem).elements
    assert len(elements) == 2 ** (k + 1) and len(elements.a_loc) <= 8


def test_kept_elements_are_the_only_children():
    mesh = gf.uniform_refine(gf.initial_mesh("zshape"), 2)
    assert not mesh.kept.any() and not gf.initial_mesh("zshape").kept.any()
    fine = gf.refine(mesh, [0, 5])
    children = np.bincount(fine.parent, minlength=mesh.n_triangles)
    assert np.array_equal(fine.kept, children[fine.parent] == 1)
    kept = np.flatnonzero(fine.kept)
    assert 0 < kept.size < fine.n_triangles
    assert np.array_equal(fine.vertices[fine.triangles[kept]],
                          mesh.vertices[mesh.triangles[fine.parent[kept]]])


def test_rows_of_other_elements_are_rejected():
    # only the level that the mesh refines may be carried: the level
    # itself and a level two back are rejected, before any array is dropped
    problem = gf.get_benchmark("zshape-convection").problem
    coarse = gf.uniform_refine(gf.initial_mesh("zshape"), 1)
    mesh = gf.refine(coarse, [0, 3])
    fine = gf.refine(mesh, [0, 5])

    def level(m):
        space = gf.build_space(m, 2)
        return space, gf.assemble(space, problem).elements

    fine_space, fine_elements = level(fine)
    for elements in (fine_elements, level(coarse)[1]):
        before = [getattr(elements, n) for n in ELEMENT_FIELDS]
        with pytest.raises(ValueError, match="not one refine step"):
            gf.assemble(fine_space, problem, elements)
        assert all(getattr(elements, n) is a for n, a in zip(ELEMENT_FIELDS, before))


def test_finished_geometry_is_freed_before_the_next_assemble(monkeypatch):
    # the next level reads only the finished level's element rows, so no
    # estimator geometry is alive when the next level's assemble starts
    from goafem import driver

    assemble, geometry = driver.assemble, driver.EstimatorGeometry
    made, alive = [], []

    def tracked(*args):
        geo = geometry(*args)
        made.append(weakref.ref(geo))
        return geo

    def checked(*args):
        alive.append(sum(ref() is not None for ref in made))
        return assemble(*args)

    monkeypatch.setattr(driver, "EstimatorGeometry", tracked)
    monkeypatch.setattr(driver, "assemble", checked)
    gf.run(gf.get_benchmark("goal-singularity").problem, gf.AdaptiveParams(p=1, max_levels=3))
    assert len(made) == 4 and alive == [0, 0, 0, 0]


def test_finished_space_is_freed_before_the_next_solves(monkeypatch):
    # both seeds are prolonged before the first solve, and then the
    # finished level's iterates and their space are dropped: one space
    # is alive at every solve_estimate call
    from goafem import driver

    build_space, solve_estimate = driver.build_space, driver.solve_estimate
    made, alive = [], []

    def tracked(*args):
        space = build_space(*args)
        made.append(weakref.ref(space))
        return space

    def checked(*args):
        alive.append(sum(ref() is not None for ref in made))
        return solve_estimate(*args)

    monkeypatch.setattr(driver, "build_space", tracked)
    monkeypatch.setattr(driver, "solve_estimate", checked)
    gf.run(gf.get_benchmark("goal-singularity").problem, gf.AdaptiveParams(p=1, max_levels=3))
    assert len(made) == 4 and alive == [1] * 8
