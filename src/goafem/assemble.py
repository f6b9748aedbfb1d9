"""Assembly of the nonsymmetric form, its symmetric part and the loads.

The bilinear form is b(u, v) = a(u, v) + (b_conv . grad u + c u, v) with
principal part a(u, v) = (A grad u, grad v); the matrix convention is
B[i, j] = b(phi_j, phi_i).  The dual problem is solved with B^T, no
separate assembly.  Quadrature is exact for polynomials of degree
2p + 2, which covers all bilinear terms of the benchmarks.

Each level makes one pass over its elements, in :func:`assemble`: the
quadrature points and weights, the gradients, b . grad phi and the
values of c, f and g are computed once, build B, A_sym, F and G, and
stay on the :class:`AssembledSystem` as its :class:`ElementData`, which
the residual estimator reads instead of evaluating them again.

The matrices are built in the free numbering ``space.free_index``:
element entries on a Dirichlet dof are dropped before one COO-to-CSR
conversion per matrix.  A_sym is symmetrised per element, and exactly
symmetric, as an off-diagonal entry sums at most two elements.  Its
exact zeros, where orthogonal gradients meet convection or reaction
terms of B, are pruned: every matvec pays for the stored entries.

The inner products of :func:`energy_norm` and :func:`goal_value` go
through :func:`_inner`, a plain reduction loop, and not through BLAS
``ddot``.  Above about 10,000 entries OpenBLAS splits a 1-D dot product
across threads.  On a 2-vCPU machine such a call often took 6-8 ms
instead of 5 us, and the worker it wakes kept spinning on the second
core: numpy work right after it ran about 10% slower.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import problem as prob
from .basis import triangle_tables
from .quadrature import triangle_rule
from .space import DiscreteFunction, grad_lambda

# elements per block of the pass: the per-point basis gradients and the
# products formed from them live for one block, not for the whole level
_CHUNK = 4096


@dataclass
class ElementData:
    """Quadrature data of one level's element pass, one row per element.

    ``val`` (nq, nd) holds the basis values at the reference points,
    ``glam`` (nt, 3, 2) the barycentric gradients, ``x`` (nt, nq, 2) the
    quadrature points, ``scale`` (nt, nq) the weights 2|T| w_q, ``conv``
    (nt, nq, nd) the values of b_conv . grad phi and ``c``, ``f``, ``g``
    (nt, nq) those of the coefficients.
    """

    val: np.ndarray
    glam: np.ndarray
    x: np.ndarray
    scale: np.ndarray
    conv: np.ndarray
    c: np.ndarray
    f: np.ndarray
    g: np.ndarray


def _apply_diffusion(A_field, x, grad):
    """(A grad phi) at quadrature points, with constant-A fast paths."""
    if callable(A_field):
        return np.einsum("cqde,cqie->cqid", prob.eval_matrix(A_field, x), grad)
    A = np.asarray(A_field, dtype=float).reshape(2, 2)
    return grad if np.array_equal(A, np.eye(2)) else grad @ A.T


def _weighted_gram(scale, agrad, grad):
    """out[c, i, j] = sum_{q, d} scale[c, q] grad[c, q, i, d] agrad[c, q, j, d]."""
    nc, nq, nd, _ = grad.shape
    L = (scale[:, :, None, None] * grad).transpose(0, 1, 3, 2).reshape(nc, nq * 2, nd)
    R = agrad.transpose(0, 1, 3, 2).reshape(nc, nq * 2, nd)
    return np.matmul(L.transpose(0, 2, 1), R)


def _element_pass(space, problem):
    """One pass over the elements of ``space``.

    Returns ``(a_loc, b_loc, F, G, data)``: the element matrices of the
    principal part and of the full form, (nt, nd, nd), the loads on all
    dofs and the :class:`ElementData`.  Coefficients are evaluated once,
    at all points of the level; the basis gradients are formed in blocks
    of ``_CHUNK`` elements.
    """
    mesh = space.mesh
    nt = mesh.n_triangles
    bary, w = triangle_rule(2 * space.p + 2)
    val, dbary, _ = triangle_tables(space.p, 2 * space.p + 2)     # (nq, nd), (nq, nd, 3)
    nq, nd = val.shape
    dflat = dbary.reshape(nq * nd, 3)
    glam = grad_lambda(mesh)
    x = np.matmul(bary[None, :, :], mesh.vertices[mesh.triangles])     # (nt, nq, 2)
    scale = 2.0 * mesh.areas[:, None] * w[None, :]
    if not problem.spd_spot_check(x[:8].reshape(-1, 2)):
        raise ValueError("diffusion matrix A is not symmetric positive definite")

    data = ElementData(val=val, glam=glam, x=x, scale=scale,
                       conv=np.empty((nt, nq, nd)), c=prob.eval_scalar(problem.c, x),
                       f=prob.eval_scalar(problem.f, x), g=prob.eval_scalar(problem.g, x))
    bfield = prob.eval_vector(problem.b_conv, x)
    a_loc = np.empty((nt, nd, nd))
    b_loc = np.empty((nt, nd, nd))
    f_loc = np.empty((nt, nd))
    g_loc = np.empty((nt, nd))
    # flux data at the points, None where it is identically zero
    fluxes = [None if prob.is_zero(v) else prob.eval_vector(v, x)
              for v in (problem.f_vec, problem.g_vec)]

    for start in range(0, nt, _CHUNK):
        sl = slice(start, min(start + _CHUNK, nt))
        grad = np.matmul(dflat[None, :, :], glam[sl]).reshape(-1, nq, nd, 2)
        a_loc[sl] = _weighted_gram(scale[sl], _apply_diffusion(problem.A, x[sl], grad), grad)
        conv = data.conv[sl] = np.matmul(grad, bfield[sl][:, :, :, None])[:, :, :, 0]
        b_loc[sl] = a_loc[sl] + np.matmul(
            val.T[None, :, :], scale[sl][:, :, None] * (conv + data.c[sl][:, :, None] * val))
        for dens, flux, loc in zip((data.f, data.g), fluxes, (f_loc, g_loc)):
            loc[sl] = np.einsum("cq,cq,qi->ci", scale[sl], dens[sl], val)
            if flux is not None:
                loc[sl] += np.einsum("cq,cqd,cqid->ci", scale[sl], flux[sl], grad)

    dofs = space.cell_dofs.ravel()
    F = np.bincount(dofs, weights=f_loc.ravel(), minlength=space.n_dofs)
    G = np.bincount(dofs, weights=g_loc.ravel(), minlength=space.n_dofs)
    return a_loc, b_loc, F, G, data


def _free_matrices(space, a_loc, b_loc):
    """Free-dof CSR matrices of summed element matrices: the principal
    part symmetrised per element, and the full form."""
    dofs = space.free_index[space.cell_dofs]
    nd = dofs.shape[1]
    # scipy's own index dtype for the CSR builds, so neither converts
    # the row and column arrays again
    fits = max(space.n_free, dofs.size * nd) <= np.iinfo(np.int32).max
    dofs = dofs.astype(np.int32 if fits else np.int64)
    rows = np.repeat(dofs, nd, axis=1).ravel()
    cols = np.tile(dofs, (1, nd)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    rows, cols = rows[keep], cols[keep]

    def to_free(loc):
        return sp.csr_matrix((loc.ravel()[keep], (rows, cols)), shape=(space.n_free,) * 2)

    A_sym = to_free(0.5 * (a_loc + a_loc.transpose(0, 2, 1)))
    A_sym.eliminate_zeros()
    return A_sym, to_free(b_loc)


def assemble(space, problem):
    """Assemble B, A_sym and the load vectors F, G on the free dofs."""
    a_loc, b_loc, F, G, data = _element_pass(space, problem)
    A_sym, B = _free_matrices(space, a_loc, b_loc)
    free = space.free_dofs
    return AssembledSystem(space=space, B=B, A_sym=A_sym, F_vec=F[free], G_vec=G[free],
                           elements=data)


@dataclass
class AssembledSystem:
    """Sparse matrices, loads and element data of one discrete level."""

    space: object
    B: sp.csr_matrix
    A_sym: sp.csr_matrix
    F_vec: np.ndarray
    G_vec: np.ndarray
    elements: ElementData
    _lu: dict = field(default_factory=dict, repr=False)

    @property
    def n(self):
        return self.F_vec.shape[0]

    def solve_spd(self, rhs):
        """Direct solve with A_sym (cached factorization); test and diagnostics oracle."""
        if self.n == 0:
            return np.zeros(0)
        if "A" not in self._lu:
            self._lu["A"] = spla.splu(self.A_sym.tocsc())
        return self._lu["A"].solve(rhs)


def _coeffs(v):
    return v.values if isinstance(v, DiscreteFunction) else np.asarray(v, dtype=float)


def _inner(x, y):
    """sum_i x[i] y[i] without BLAS: the same loop at every size."""
    return np.einsum("i,i->", x, y)


def energy_norm(system, v):
    """Energy norm sqrt(v^T A_sym v)."""
    x = _coeffs(v)
    if x.shape != (system.n,):
        raise ValueError("coefficient vector does not match system size")
    if system.n == 0:
        return 0.0
    return float(np.sqrt(max(_inner(x, system.A_sym @ x), 0.0)))


def goal_value(system, u, z):
    """Corrected discrete goal G(u) + [F(z) - b(u, z)]."""
    uu = _coeffs(u)
    zz = _coeffs(z)
    if uu.shape != (system.n,) or zz.shape != (system.n,):
        raise ValueError("coefficient vector does not match system size")
    if system.n == 0:
        return 0.0
    return float(_inner(system.G_vec, uu) + _inner(system.F_vec, zz)
                 - _inner(zz, system.B @ uu))


def solve_direct(system, which="primal"):
    """Direct Galerkin solve; diagnostics oracle, never on the cost path.
    The dual solve reuses the LU of B.  A solution of M x = b must have the
    backward error |M x - b| <= 1e-12 (|M| |x| + |b|) in the infinity norm."""
    space = system.space
    if system.n == 0:
        return DiscreteFunction(space, np.zeros(0))
    if which == "primal":
        mat, rhs, trans = system.B, system.F_vec, "N"
    elif which == "dual":
        mat, rhs, trans = system.B.T, system.G_vec, "T"
    else:
        raise ValueError("which must be 'primal' or 'dual'")
    if "B" not in system._lu:
        system._lu["B"] = spla.splu(system.B.tocsc())
    x = system._lu["B"].solve(rhs, trans=trans)
    if not np.all(np.isfinite(x)):
        raise np.linalg.LinAlgError("direct solve produced non-finite values")
    res = np.abs(mat @ x - rhs).max()
    if res > 1e-12 * (spla.norm(mat, np.inf) * np.abs(x).max() + np.abs(rhs).max()):
        raise np.linalg.LinAlgError("direct solve backward error too large")
    return DiscreteFunction(space, x)
