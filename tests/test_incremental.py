"""A level computes element rows only for its new elements.

The rows of the elements refine kept are copied from the finished level's
own element data; they must be, bit for bit, the rows a full pass over
the level gives.  Nothing else of the finished level is carried.
"""

import dataclasses
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goafem as gf
from conftest import point_data_problem
from goafem.assemble import ElementData
from goafem.problem import is_zero

ELEMENT_FIELDS = [f.name for f in dataclasses.fields(ElementData)]


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _same_rows(a, b):
    """Both None, or both arrays with the same bits."""
    return a is b is None or (a is not None and b is not None and _bits(a) == _bits(b))


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
       name=st.sampled_from(["goal-singularity", "zshape-convection", "point-data"]),
       p=st.integers(min_value=1, max_value=3))
def test_carried_rows_match_a_full_pass(seed, name, p):
    # the point data checks the carry of c_dual, f_res, g_res and f_edge
    # on values that vary from row to row
    problem = point_data_problem() if name == "point-data" else gf.get_benchmark(name).problem
    meshes = _random_meshes(problem.domain, seed, 3)
    elements = None
    for mesh in meshes:
        space = gf.build_space(mesh, p)
        previous = elements
        system = gf.assemble(space, problem, elements)
        full = gf.assemble(space, problem)

        # every row, the estimator's zero-order, S, ahess and flux rows included
        assert (system.elements.ahess is None) == (p == 1)
        assert (system.elements.f_edge is None) == is_zero(problem.f_vec)
        assert system.elements.g_edge is not None
        for name_ in ELEMENT_FIELDS:
            assert _same_rows(getattr(system.elements, name_), getattr(full.elements, name_))
        assert _same_csr(system.B, full.B) and _same_csr(system.A_sym, full.A_sym)
        assert _bits(system.F_vec) == _bits(full.F_vec)
        assert _bits(system.G_vec) == _bits(full.G_vec)
        # what was carried is dropped once copied
        if previous is not None:
            assert all(getattr(previous, n) is None for n in ELEMENT_FIELDS[1:])
        elements = system.elements


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
