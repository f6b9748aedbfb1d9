"""A level computes element and side rows only for its new elements.

The rows of the elements refine kept are copied from the finished level's
own data; they must be, bit for bit, the rows a full pass over the level
gives.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goafem as gf
from goafem.assemble import ElementData
from goafem.estimator import EstimatorGeometry

ELEMENT_FIELDS = [f.name for f in dataclasses.fields(ElementData)]
GEOMETRY_ARRAYS = ("qw", "ahess", "tris", "S", "normal", "x_in", "weight", "elen")
# the geometry arrays carried to the next level
CARRIED = ("ahess", "S", "normal", "x_in")


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _same_csr(a, b):
    return all(_bits(getattr(a, name)) == _bits(getattr(b, name))
               for name in ("indptr", "indices", "data"))


def _carried_arrays(elements, geo):
    return ([getattr(elements, n) for n in ELEMENT_FIELDS]
            + [getattr(geo, n) for n in CARRIED])


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
       name=st.sampled_from(["goal-singularity", "zshape-convection"]),
       p=st.integers(min_value=1, max_value=3))
def test_carried_rows_match_a_full_pass(seed, name, p):
    problem = gf.get_benchmark(name).problem
    meshes = _random_meshes(problem.domain, seed, 3)
    elements = geo = None
    for mesh in meshes:
        space = gf.build_space(mesh, p)
        previous = elements, geo
        system = gf.assemble(space, problem, elements)
        geo = EstimatorGeometry(space, system.elements, problem, geo)
        full = gf.assemble(space, problem)
        full_geo = EstimatorGeometry(space, full.elements, problem)

        for name_ in ELEMENT_FIELDS:
            assert _bits(getattr(system.elements, name_)) == _bits(getattr(full.elements, name_))
        assert _same_csr(system.B, full.B) and _same_csr(system.A_sym, full.A_sym)
        assert _bits(system.F_vec) == _bits(full.F_vec)
        assert _bits(system.G_vec) == _bits(full.G_vec)
        for name_ in GEOMETRY_ARRAYS:
            assert _bits(getattr(geo, name_)) == _bits(getattr(full_geo, name_))
        # what was carried is dropped once copied
        if previous[0] is not None:
            assert all(getattr(previous[0], n) is None for n in ELEMENT_FIELDS[1:])
            assert all(getattr(previous[1], n) is None for n in CARRIED)
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
        elements = gf.assemble(space, problem).elements
        return space, elements, EstimatorGeometry(space, elements, problem)

    fine_space, fine_elements, fine_geo = level(fine)
    for elements, geo in ((fine_elements, fine_geo), level(coarse)[1:]):
        before = _carried_arrays(elements, geo)
        with pytest.raises(ValueError, match="not one refine step"):
            gf.assemble(fine_space, problem, elements)
        with pytest.raises(ValueError, match="not one refine step"):
            EstimatorGeometry(fine_space, fine_elements, problem, geo)
        assert all(a is b for a, b in zip(_carried_arrays(elements, geo), before))
