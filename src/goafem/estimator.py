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
algebraic solver step reduces to one product per element.  It reads
the element's rows of its residual tensor R, then the edge terms of its
shape class, per local edge, and gives its residual at the element
points and the one-sided fluxes of its three edges.  At p = 1 with a
constant A an edge term is one row, as A grad phi . n is constant along
the edge, so an element has 9 + 3 rows; otherwise it has one row per
edge point (``ElementData.S``).  A workspace forms the rows of a block
of elements where the product reads them, and keeps them from its
second evaluation on: a loop that stops after one solver step, as with
the default parameters, never holds them for the whole level.

The products are written element-minor: a (rows, nt) array whose row j
holds row j of every element's product, through a transposed view that
BLAS writes with a stride, bit for bit as into a contiguous array.  The
residual sums, the flux gathers and the edge sums then read contiguous
rows.  The side set reads the fluxes from there: the left sides of the
interior edges, their right sides and the Neumann sides; an interior
jump is the sum of its two sides, and a flux row of one point
broadcasts over the edge points, against the flux data where it is
not zero.  Each edge term, with the weight 0.5 or 1.0 times sqrt|T|,
goes to the elements in that order: a (3, nt) table of each element's
sides makes this three gather-adds, the additions of ``np.add.at``.
The side set is rebuilt on every level.
"""

from dataclasses import dataclass

import numpy as np

from .assemble import _element_pass
from .mesh import NEUMANN, _element_ids
from .quadrature import interval_rule, triangle_rule
from .space import DiscreteFunction, _row_sums

# values of R per block of elements (1 MiB): the rows of a block and the
# temporaries of their product live for one block
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
    its slot of the element-minor edge rows (:meth:`edge_sums`).  Per
    edge, interior edges first: the length ``elen``.  Per point and
    element, element-minor: the integration weights ``qw`` (nq, nt).
    """

    def __init__(self, space, elements):
        if space.p >= 2 and elements.ahess is None:
            raise NotImplementedError(
                "second-order residual terms need a constant diffusion matrix")
        self.space = space
        self.elements = elements
        mesh = space.mesh
        nt = mesh.n_triangles
        # element integration weights |T| * 2|T| w_q, element-minor, with
        # the bits of |T| * quadrature_weights(space)
        w = triangle_rule(2 * space.p + 2)[1]
        self.qw = mesh.areas * (2.0 * mesh.areas * w[:, None])

        tables = mesh.edge_tables
        labels = mesh.edge_labels
        int_ids = np.nonzero(labels < 0)[0]
        neu_ids = np.nonzero(labels == NEUMANN)[0]
        self.n_int = ni = int_ids.size
        nn = neu_ids.size
        eids = np.concatenate([int_ids, int_ids, neu_ids])
        side = np.repeat([0, 1, 0], [ni, ni, nn])
        # side ids and slots in 32 bits while 3 nt fits, as the CSR indices
        ids = np.int32 if 3 * nt <= np.iinfo(np.int32).max else np.int64
        slot = tables.sides[eids, side].astype(ids)
        self.tris, local = np.divmod(slot, 3)
        # each element's sides in tris order: the positions of its sides,
        # sorted, (3, nt); a missing side reads the zero slot after the last
        ns = slot.size
        positions = np.full(3 * nt, ns, dtype=ids)
        positions[slot] = np.arange(ns)
        self._sides = np.ascontiguousarray(np.sort(positions.reshape(nt, 3), axis=1).T)
        # the slot of a side in element-minor rows (3, nt): local edge i
        # of element t is i nt + t.  The slots of each edge's first side
        # (left or Neumann) and of the right sides of the interior edges
        slot = local * nt + self.tris
        self._first, self._right = np.concatenate([slot[:ni], slot[2 * ni:]]), slot[ni:2 * ni]
        ends = mesh.vertices[tables.edges[eids[ni:]]]
        dx, dy = (ends[:, 1] - ends[:, 0]).T
        # the bits of np.linalg.norm(axis=1): two squares summed from +0.0
        self.elen = np.sqrt(dx * dx + dy * dy)
        self.weight = np.repeat([0.5, 1.0], [2 * ni, nn]) * np.sqrt(mesh.areas)[self.tris]
        self.w_e = interval_rule(2 * space.p + 2)[1]

    def edge_sums(self, rows):
        """Per-edge sums of element-minor side rows ``rows`` (3 k, nt), row
        i k + q holding point q of local edge i: left + right on an
        interior edge, the side itself on a Neumann edge, (k, n_edges)."""
        k = rows.shape[0] // 3
        # (k, 3 nt): a view for k = 1
        rows = rows.reshape(3, k, -1).swapaxes(0, 1).reshape(k, -1)
        sums = np.take(rows, self._first, axis=1)
        sums[:, :self.n_int] += np.take(rows, self._right, axis=1)
        return sums

    def add_sides(self, eta_sq, values):
        """``np.add.at(eta_sq, tris, values[:-1])``, bit for bit where
        ``eta_sq`` holds no -0.0, as row sums from +0.0 do: each element
        adds the values of its sides in tris order.  ``values`` holds one
        value per side and a last one, 0.0, that an element adds for each
        side it lacks."""
        for positions in self._sides:
            eta_sq += np.take(values, positions)


def _block(rows, sl):
    """The rows ``sl`` of the per-element ``rows``; one (1, 1) row
    broadcasts, and is the block itself."""
    return rows if rows.shape[0] == 1 else rows[sl]


class EstimatorWorkspace:
    """Residual tensors of one side (primal or dual) on one level.

    :meth:`indicators` forms the rows of each element block
    (:meth:`rows`) where it reads them, and keeps them from the second
    evaluation on; a workspace evaluated once never holds them all.
    """

    def __init__(self, geometry, which):
        if which not in ("primal", "dual"):
            raise ValueError("which must be 'primal' or 'dual'")
        self.geo = geometry
        el = geometry.elements
        # element residual: r = R . coeffs + r0 with
        # R_i = -A:Hess phi_i + sign b.grad phi_i + c_eff phi_i, where sign
        # = 1, c_eff = c primal and sign = -1, c_eff = c - div b dual, summed
        # from rows of the element pass; c_eff and r0 may be one (1, 1)
        # row, which broadcasts
        self._dual = which == "dual"
        self._c_eff, self._r0, flux = ((el.c_dual, el.g_res, el.g_edge) if self._dual
                                       else (el.c, el.f_res, el.f_edge))
        self._n = max(1, _BLOCK_VALUES // el.val.size)
        self._evaluated = False
        self._kept = None
        # the flux data's part of each edge term, (nq_e, n_edges), None
        # when it is zero
        self._flux0 = None if flux is None else geometry.edge_sums(flux.reshape(len(el), -1).T)

    def rows(self, sl):
        """The rows [R; S[shape]] of the elements ``sl``, (n, nq + 3 nq_s,
        nd): per element the rows of R, then those of its edge terms, so
        that one product gives both."""
        el = self.geo.elements
        nq, nd = el.val.shape
        S = el.S.reshape(len(el.S), -1, nd)
        shape = el.shape[sl]
        block = np.empty((shape.size, nq + S.shape[1], nd))
        (np.subtract if self._dual else np.add)(_block(self._c_eff, sl)[:, :, None] * el.val,
                                                el.conv[sl], out=block[:, :nq])
        if el.ahess is not None:
            block[:, :nq] -= el.ahess[shape]
        block[:, nq:] = S[shape]
        return block

    def indicators(self, v):
        """Squared indicators of the iterate ``v``."""
        geo = self.geo
        space = geo.space
        full = v.full() if isinstance(v, DiscreteFunction) else space.full(np.asarray(v, float))
        coeffs = full[space.cell_dofs]

        # the first evaluation forms each block's rows and drops them, the
        # second keeps them for the later ones, and r0 column-major, so
        # that a block's r0 rows, transposed, are contiguous
        nq, nt = geo.qw.shape
        slices = [slice(start, start + self._n) for start in range(0, nt, self._n)]
        if self._kept is None and self._evaluated:
            self._kept = list(map(self.rows, slices))
            self._r0 = np.asfortranarray(self._r0)
        self._evaluated = True
        blocks = self._kept or map(self.rows, slices)
        # one product per element gives its residual at the element
        # points and the fluxes of its three sides, written element-minor:
        # row j of a block's ``out`` holds row j of each element's product.
        # The residual is squared and summed in its block; the flux rows
        # stay element-minor for the whole level, (3 nq_s, nt)
        fluxes = np.empty((3 * geo.elements.S.shape[2], nt))
        eta_sq = np.empty(nt)
        for block, sl in zip(blocks, slices):
            out = np.empty(block.shape[1::-1])
            np.matmul(block, coeffs[sl, :, None], out=out.T[:, :, None])
            fluxes[:, sl] = out[nq:]
            r = out[:nq]
            r += _block(self._r0, sl).T
            eta_sq[sl] = _row_sums(np.multiply(geo.qw[:, sl] * r, r, out=r).T)
        del full, coeffs

        # an interior jump sums its two sides; one flux row per edge
        # broadcasts over the edge points
        jump = geo.edge_sums(fluxes)
        if self._flux0 is not None:
            jump = jump - self._flux0
        sq = jump * geo.w_e[:, None]
        sq *= jump
        # summed over the edge points (at most 5) in order from +0.0, as
        # numpy's row sums add fewer than 8 terms
        contrib = geo.elen * _row_sums(sq.T)
        # left and right sides both get their interior edge's term; the
        # last slot is the zero of the elements with fewer than three sides
        ns, ni = geo.tris.size, geo.n_int
        values = np.empty(ns + 1)
        values[:ni], values[ni:ns], values[ns] = contrib[:ni], contrib, 0.0
        values[:ns] *= geo.weight
        geo.add_sides(eta_sq, values)
        return IndicatorField(eta_sq=eta_sq)


def indicators(space, problem, v, which="primal"):
    """One-shot indicator computation: the element pass of the assembly,
    without its sparse matrices, and a workspace."""
    geometry = EstimatorGeometry(space, _element_pass(space, problem))
    return EstimatorWorkspace(geometry, which).indicators(v)
