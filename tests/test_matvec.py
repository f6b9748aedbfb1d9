"""The sparse products of a solver step: ``_matvec`` against ``M @ x``."""

import numpy as np
import pytest
import scipy.sparse as sp

import goafem as gf
from goafem.assemble import _matvec
from goafem.multigrid import _p1_prolongation


def _with_index(M, index):
    """``M`` with its index arrays in the dtype ``index``."""
    M = M.copy()
    M.indptr = M.indptr.astype(index)
    M.indices = M.indices.astype(index)
    return M


def _matrices(bench1):
    """CSR matrices of a level and the CSC transpose views the cycle reads,
    a rectangular prolongation among them, and empty ones."""
    rng = np.random.default_rng(7)
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 3)
    fine = gf.refine(mesh, rng.choice(mesh.n_triangles, size=mesh.n_triangles // 3,
                                      replace=False))
    space = gf.build_space(fine, 2)
    system = gf.assemble(space, bench1.problem)
    P = _p1_prolongation(fine, space.free_index)
    assert P.shape[0] > P.shape[1] > 0
    # entries over many magnitudes and signs, so a sum in another order
    # would change bits
    R = sp.random(40, 30, density=0.3, format="csr", random_state=3)
    R.data = rng.standard_normal(R.nnz) * 10.0 ** rng.integers(-8, 9, R.nnz)
    return {"A_sym": system.A_sym, "B": system.B, "B.T": system.B.T, "P": P, "P.T": P.T,
            "random": R, "random.T": R.T, "0x0": sp.csr_matrix((0, 0)),
            "5x0": sp.csr_matrix((5, 0)), "0x5": sp.csr_matrix((0, 5)),
            "5x0.T": sp.csr_matrix((5, 0)).T}


@pytest.mark.parametrize("index", [np.int32, np.int64])
def test_matvec_is_scipys_matvec_bit_for_bit(bench1, index):
    # _matvec calls the kernel that ``M @ x`` ends in; a scipy release
    # that moves or changes that kernel fails here, by name
    rng = np.random.default_rng(11)
    for name, M in _matrices(bench1).items():
        M = _with_index(M, index)
        assert M.format in ("csr", "csc") and M.indices.dtype == index, name
        x = rng.standard_normal(M.shape[1]) * 10.0 ** rng.integers(-8, 9, M.shape[1])
        y = _matvec(M, x)
        assert y.dtype == np.float64 and y.shape == (M.shape[0],), name
        assert y.tobytes() == (M @ x).tobytes(), name


@pytest.mark.parametrize("shape", [(4,), (6,), (5, 1), (1, 5), ()])
def test_matvec_rejects_a_vector_of_another_shape(shape):
    # the kernel reads x without bounds checks
    M = sp.random(3, 5, density=0.5, format="csr", random_state=0)
    with pytest.raises(ValueError, match="does not match"):
        _matvec(M, np.ones(shape))
    with pytest.raises(ValueError, match="does not match"):
        _matvec(M.T, np.ones(shape))


@pytest.mark.parametrize("p", [1, 2])
def test_step_path_makes_no_scipy_matmul(monkeypatch, bench1, p):
    rng = np.random.default_rng(5)
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 4)
    hier = gf.MeshHierarchy(mesh)
    for _ in range(7):
        mesh = gf.refine(mesh, rng.choice(mesh.n_triangles, size=mesh.n_triangles // 3,
                                          replace=False))
        hier.append(mesh)
    space = gf.build_space(mesh, p)
    system = gf.assemble(space, bench1.problem)
    pc = gf.build_preconditioner(hier, space, system.A_sym)
    # the step recurses through two levels and applies the bottom operator
    assert len(pc.chain) >= 2 and pc.p1.bottom is not None
    w = gf.DiscreteFunction(space, rng.standard_normal(space.n_free))

    calls = []
    matmul = sp._base._spbase.__matmul__

    def counting(self, other):
        calls.append(self.shape)
        return matmul(self, other)

    monkeypatch.setattr(sp._base._spbase, "__matmul__", counting)
    for which in ("primal", "dual"):
        rhs = gf.zarantonello_rhs(system, which, w, 0.5)
        u = gf.psi_step(pc, rhs, w)
        gf.energy_norm(system, u)
    gf.goal_value(system, u, w)
    if p > 1:
        pc._patch_spectral_bound()
    assert calls == []
    # the patch sees the products it is meant to count
    system.A_sym @ w.values
    assert calls == [system.A_sym.shape]
