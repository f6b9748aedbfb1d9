"""Residual refinement indicators for the primal and dual problems.

Element terms use the weight |T|^(2/d) and edge terms |T|^(1/d) with
d = 2.  Interior-edge jump integrals are split half/half between the
two adjacent elements; Neumann edges contribute the full flux residual
to their single element.  Dirichlet edges contribute nothing.

The flux data (f_vec resp. g_vec) enters the edge terms through its
one-sided traces: it is evaluated at the edge quadrature points pulled
slightly into each adjacent element (relative offset 1e-6 toward the
centroid).  For data that is smooth across the edge the two traces
cancel in the jump; for characteristic-function data whose support
boundary lies on the edge they do not, so a flux kink that the discrete
solution has already resolved stops being counted as error.  The
divergence of the flux data enters the element residual through the
rows div f_vec - f and div g_vec - g of the assembly pass, from the
user-supplied ``div_f_vec``/``div_g_vec`` fields; these are zero by
default, which is exact for piecewise-constant data away from its
discontinuity lines.

The indicators are affine in the coefficient vector.  What does not
depend on the iterate is built once per level: the element rows, the
zero-order, second-order and edge terms included, come from the
assembly pass (:class:`goafem.assemble.ElementData`).  That pass is the
only code that evaluates problem data at element points; it computes
the rows only for the new elements and copies the others (the carry,
described once in :mod:`goafem.assemble`).  :class:`EstimatorGeometry`
adds the side set, shared by the primal and the dual
:class:`EstimatorWorkspace`, so that the re-evaluation after every
algebraic solver step reduces to one product per element.  The
workspace holds one buffer per element: the rows of its residual
tensor R, then the edge terms of its shape class, per local edge; one
product with the element's coefficients gives its residual at the
element points and the one-sided fluxes of its three edges.  The side
set reads the fluxes from there: the left sides of the interior edges,
their right sides and the Neumann sides; an interior jump is the sum of
its two sides, and one accumulation adds each edge term, with the
weight 0.5 or 1.0 times sqrt|T|, to the elements in that order.  The
edge-term rows are the same for both sides, so the dual workspace takes
over the primal's buffer and rewrites only its R rows.  The side set is
rebuilt on every level.
"""

from dataclasses import dataclass

import numpy as np

from .assemble import _element_pass, quadrature_weights
from .mesh import NEUMANN, _element_ids
from .quadrature import interval_rule
from .space import DiscreteFunction, _row_sums

# values of R per block of a workspace's buffer (1 MiB): the temporaries
# of its build and of each product live for one block
_BLOCK_VALUES = 2 ** 17


@dataclass
class IndicatorField:
    """Per-element squared indicators."""

    eta_sq: np.ndarray

    @property
    def total_sq(self):
        return float(self.eta_sq.sum())

    @property
    def total(self):
        return float(np.sqrt(self.eta_sq.sum()))

    def __len__(self):
        return self.eta_sq.shape[0]


def subset_total(field, subset):
    """sqrt of the squared indicators summed over an element subset."""
    subset = _element_ids(subset, len(field), "subset")
    return float(np.sqrt(field.eta_sq[subset].sum()))


class EstimatorGeometry:
    """The side set of ``space``, shared by the primal and the dual
    indicators, over the element rows ``elements`` of the assembly pass.
    Per side (left sides of the ``n_int`` interior edges, right sides,
    Neumann sides): the element ``tris`` and the ``weight``; a side reads
    its slot (``Triangulation.edge_tables.sides``) of the element-major
    edge rows.  Per edge, interior edges first: the length ``elen``.  Per
    element: the integration weights ``qw``.
    """

    def __init__(self, space, elements):
        if space.p >= 2 and elements.ahess is None:
            raise NotImplementedError(
                "second-order residual terms need a constant diffusion matrix")
        self.space = space
        self.elements = elements
        mesh = space.mesh
        # element integration weights |T| * 2|T| w_q
        self.qw = mesh.areas[:, None] * quadrature_weights(space)

        tables = mesh.edge_tables
        labels = mesh.edge_labels
        int_ids = np.nonzero(labels < 0)[0]
        neu_ids = np.nonzero(labels == NEUMANN)[0]
        self.n_int = ni = int_ids.size
        nn = neu_ids.size
        eids = np.concatenate([int_ids, int_ids, neu_ids])
        side = np.repeat([0, 1, 0], [ni, ni, nn])
        # side ids and slots in 32 bits while 3 nt fits, as the CSR indices
        ids = np.int32 if 3 * mesh.n_triangles <= np.iinfo(np.int32).max else np.int64
        slot = tables.sides[eids, side].astype(ids)
        self.tris = slot // 3
        # the slots of each edge's first side (left or Neumann) and of the
        # right sides of the interior edges
        self._first, self._right = np.concatenate([slot[:ni], slot[2 * ni:]]), slot[ni:2 * ni]
        ends = mesh.vertices[tables.edges[eids[ni:]]]
        dx, dy = (ends[:, 1] - ends[:, 0]).T
        # the bits of np.linalg.norm(axis=1): two squares summed from +0.0
        self.elen = np.sqrt(dx * dx + dy * dy)
        self.weight = np.repeat([0.5, 1.0], [2 * ni, nn]) * np.sqrt(mesh.areas)[self.tris]
        self.w_e = interval_rule(2 * space.p + 2)[1]

    def edge_sums(self, values):
        """Per-edge sums of the side rows of element-major ``values`` (nt, 3, ...):
        left + right on an interior edge, the side itself on a Neumann edge."""
        rows = values.reshape((-1,) + values.shape[2:])
        sums = np.take(rows, self._first, axis=0)
        sums[:self.n_int] += np.take(rows, self._right, axis=0)
        return sums


def _block(rows, sl):
    """The rows ``sl`` of the per-element ``rows``; one (1, 1) row
    broadcasts, and is the block itself."""
    return rows if rows.shape[0] == 1 else rows[sl]


class EstimatorWorkspace:
    """Residual tensors of one side (primal or dual) on one level.

    Given ``shared``, a workspace on the same geometry, the new one takes
    over its buffer, keeps the edge-term rows and rewrites the rows of R;
    ``shared`` then holds no buffer and cannot be evaluated, nor share it
    again.
    """

    def __init__(self, geometry, which, shared=None):
        if which not in ("primal", "dual"):
            raise ValueError("which must be 'primal' or 'dual'")
        if shared is not None and shared.geo is not geometry:
            raise ValueError("a shared buffer must come from a workspace on the same geometry")
        if shared is not None and shared._RS is None:
            raise ValueError("the shared workspace holds no buffer: it gave it to another one")
        self.geo = geometry
        el = geometry.elements

        # element residual: r = R . coeffs + r0 with
        # R_i = -A:Hess phi_i + sign b.grad phi_i + c_eff phi_i, where sign
        # = 1, c_eff = c primal and sign = -1, c_eff = c - div b dual, summed
        # from rows of the element pass; c_eff and r0 may be one (1, 1)
        # row, which broadcasts.  The buffer [R; S[shape]] holds per
        # element the rows of R, then those of its edge terms, so that one
        # product gives both.  It is one (n, nq + 3 nq_e, nd) array per
        # block of n elements: one array of the whole buffer did not reuse
        # the memory the level's assembly had freed, and set the run's
        # peak RSS
        dual = which == "dual"
        c_eff, self._r0, flux = ((el.c_dual, el.g_res, el.g_edge) if dual
                                 else (el.c, el.f_res, el.f_edge))
        nq, nd = el.val.shape
        S = el.S.reshape(len(el.S), -1, nd)
        self._n = n = max(1, _BLOCK_VALUES // (nq * nd))
        if shared is None:
            self._RS = [np.empty((min(n, len(el) - start), nq + S.shape[1], nd))
                        for start in range(0, len(el), n)]
        else:
            self._RS, shared._RS = shared._RS, None
        for block, start in zip(self._RS, range(0, len(el), n)):
            sl = slice(start, start + n)
            R = block[:, :nq]
            (np.subtract if dual else np.add)(_block(c_eff, sl)[:, :, None] * el.val,
                                              el.conv[sl], out=R)
            if el.ahess is not None:
                R -= el.ahess[el.shape[sl]]
            if shared is None:
                block[:, nq:] = S[el.shape[sl]]
        # the flux data's part of each edge term, None when it is zero
        self._flux0 = None if flux is None else geometry.edge_sums(flux)

    def indicators(self, v):
        """Squared indicators of the iterate ``v``."""
        if self._RS is None:
            raise RuntimeError("this workspace holds no buffer: it gave it to another one")
        geo = self.geo
        space = geo.space
        if isinstance(v, DiscreteFunction):
            full = v.full()
        else:
            full = space.full(np.asarray(v, dtype=float))
        coeffs = full[space.cell_dofs]

        # one product per element gives its residual at the element
        # points and the fluxes of its three sides, block by block: only
        # the fluxes outlive their block
        nt, nq = geo.qw.shape
        eta_sq = np.empty(nt)
        flux = np.empty((nt, 3 * geo.w_e.size))
        for block, start in zip(self._RS, range(0, nt, self._n)):
            sl = slice(start, start + self._n)
            out = np.matmul(block, coeffs[sl, :, None])[:, :, 0]
            r = out[:, :nq] + _block(self._r0, sl)
            eta_sq[sl] = _row_sums(np.multiply(geo.qw[sl] * r, r, out=r))
            flux[sl] = out[:, nq:]

        # an interior jump sums its two sides
        jump = geo.edge_sums(flux.reshape(nt, 3, -1))
        del flux
        if self._flux0 is not None:
            jump -= self._flux0
        # summed over the edge points (at most 5) in order from +0.0, as
        # numpy's row sums add fewer than 8 terms
        contrib = geo.elen * _row_sums(np.multiply(jump * geo.w_e, jump, out=jump))
        # left and right sides both get their interior edge's term
        np.add.at(eta_sq, geo.tris, geo.weight * np.concatenate([contrib[:geo.n_int], contrib]))
        return IndicatorField(eta_sq=eta_sq)


def indicators(space, problem, v, which="primal"):
    """One-shot indicator computation: the element pass of the assembly,
    without its sparse matrices, and a workspace."""
    geometry = EstimatorGeometry(space, _element_pass(space, problem))
    return EstimatorWorkspace(geometry, which).indicators(v)
