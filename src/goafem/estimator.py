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
of elements where the product reads them, frees them before it forms
the next block's, and keeps them from its second evaluation on: a loop
that stops after one solver step, as with the default parameters,
never holds them for the whole level.  Where b . grad phi is stored per
shape class and c_eff is constant, as on zshape-convection, every row
is formed from the element's shape alone: the workspace forms them
once per class, every evaluation gathers a block's rows by class id,
and none is kept per element.

The products are written element-minor: a (rows, nt) array whose row j
holds row j of every element's product, through a transposed view that
BLAS writes with a stride, bit for bit as into a contiguous array, so
that the point sums read contiguous rows.  One gather,
:meth:`EstimatorGeometry.edge_sums`, reads the sides of each edge from
these flux rows and from the flux data's traces alike: the left sides
of the interior edges, their right sides and the Neumann sides; an
interior jump is the sum of its two sides, and a flux row of one point
broadcasts over the edge points, against the flux data where it is not
zero.  Each edge term, with the weight 0.5 or 1.0 times sqrt|T|, goes
to the elements in that order: a (3, nt) table of each element's sides
makes this three gather-adds, the additions of ``np.add.at``.
The side set is rebuilt on every level.
"""

from dataclasses import dataclass

import numpy as np

from .assemble import _element_pass
from .mesh import NEUMANN, _element_ids
from .quadrature import interval_rule, triangle_rule
from .space import DiscreteFunction

# the elements of a block hold this many values of their rows of R
# (1 MiB), nq nd each; with the rows of their edge terms a block holds
# (nq + 3 nq_s) nd values per element, 1.6 MiB at p = 3.  The rows of a
# block and the temporaries of their product live for one block
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
    slot i nt + t, local edge i of element t, of each point's side
    values (:meth:`edge_sums`, the one side-value gather).  Per
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
        # the bits of |T| * quadrature_weights(space): the last product is
        # formed in place, as a product's bits do not depend on the order
        # of its factors
        w = triangle_rule(2 * space.p + 2)[1]
        self.qw = np.multiply(2.0 * mesh.areas, w[:, None])
        self.qw *= mesh.areas

        tables = mesh.edge_tables
        labels = mesh.edge_labels
        interior, neumann = labels < 0, labels == NEUMANN
        self.n_int = ni = int(np.count_nonzero(interior))
        # side ids and slots in 32 bits while 3 nt fits, as the CSR indices;
        # the sides' slots: left sides of the interior edges, right sides,
        # Neumann sides
        ids = np.int32 if 3 * nt <= np.iinfo(np.int32).max else np.int64
        left, right = (tables.sides[:, k].astype(ids) for k in (0, 1))
        slot = np.concatenate([left[interior], right[interior], left[neumann]])
        del left, right
        self.tris, local = np.divmod(slot, 3)
        # each element's sides in tris order: the positions of its sides,
        # sorted, (3, nt); a missing side reads the zero slot after the last
        ns = slot.size
        positions = np.full((nt, 3), ns, dtype=ids)
        positions.reshape(-1)[slot] = np.arange(ns, dtype=ids)
        del slot
        positions.sort(axis=1)
        self._sides = np.ascontiguousarray(positions.T)
        del positions
        # the slot of a side in element-minor rows (3, nt): local edge i
        # of element t is i nt + t.  The slots of each edge's first side
        # (left or Neumann) and of the right sides of the interior edges
        local *= nt
        local += self.tris
        self._first = np.concatenate([local[:ni], local[2 * ni:]])
        self._right = local[ni:2 * ni].copy()
        del local
        # the lengths of the interior edges, then of the Neumann edges, in
        # the bits of np.linalg.norm(axis=1): two squares summed from +0.0
        a, b = tables.edges.T
        x, y = mesh.vertices.T
        dx, dy = x[b] - x[a], y[b] - y[a]
        dx *= dx
        dy *= dy
        dx += dy
        np.sqrt(dx, out=dx)
        self.elen = np.concatenate([dx[interior], dx[neumann]])
        del dx, dy
        # 0.5 sqrt|T| on an interior side, sqrt|T| on a Neumann side
        self.weight = np.sqrt(mesh.areas)[self.tris]
        self.weight[:2 * ni] *= 0.5
        self.w_e = interval_rule(2 * space.p + 2)[1]

    def edge_sums(self, points):
        """Per-edge sums of side values ``points`` (k, 3, nt), entry
        (q, i, t) holding point q of local edge i of element t: left +
        right on an interior edge, the side itself on a Neumann edge,
        (k, n_edges).  Each point's sides are read from their slots
        i nt + t; a strided point is copied first, 3 nt values."""
        sums = np.empty((len(points), self._first.size))
        for q, sides in enumerate(points):
            sides = sides.reshape(-1)
            sums[q] = np.take(sides, self._first)
            sums[q, :self.n_int] += np.take(sides, self._right)
        return sums

    def add_sides(self, eta_sq, values):
        """``np.add.at(eta_sq, tris, values[:-1])``, bit for bit where
        ``eta_sq`` holds no -0.0, as sums of squares do: each element
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
    evaluation on, unless they are gathered from the per-class table; a
    workspace evaluated once never holds them all.
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
        self._flux0 = None if flux is None else geometry.edge_sums(flux.transpose(2, 1, 0))
        # with conv per shape class and a constant c_eff every row is
        # formed from the element's shape alone: one table row per class
        self._classes = None
        if el.conv_by_class and self._c_eff.shape == (1, 1):
            self._classes = self._form(np.arange(len(el.a_loc)), el.conv, self._c_eff)

    def _form(self, shape, conv, c_eff):
        """The rows [R; S[shape]] of elements of the shape classes
        ``shape`` whose rows of b . grad phi and c_eff are ``conv`` and
        ``c_eff``."""
        el = self.geo.elements
        nq, nd = el.val.shape
        S = el.S.reshape(len(el.S), -1, nd)
        block = np.empty((shape.size, nq + S.shape[1], nd))
        # (c_eff phi) + b . grad phi primal, (c_eff phi) - b . grad phi
        # dual: the same two operations, the product formed in place
        np.multiply(c_eff[:, :, None], el.val, out=block[:, :nq])
        (np.subtract if self._dual else np.add)(block[:, :nq], conv, out=block[:, :nq])
        if el.ahess is not None:
            block[:, :nq] -= el.ahess[shape]
        block[:, nq:] = S[shape]
        return block

    def rows(self, sl):
        """The rows [R; S[shape]] of the elements ``sl``, (n, nq + 3 nq_s,
        nd): per element the rows of R, then those of its edge terms, so
        that one product gives both."""
        el = self.geo.elements
        shape = el.shape[sl]
        if self._classes is not None:
            return self._classes[shape]
        return self._form(shape, el.conv_rows(sl), _block(self._c_eff, sl))

    def indicators(self, v):
        """Squared indicators of the iterate ``v``."""
        geo = self.geo
        space = geo.space
        full = v.full() if isinstance(v, DiscreteFunction) else space.full(np.asarray(v, float))

        # the first evaluation forms each block's rows and drops them, the
        # second keeps them for the later ones, and r0 column-major, so
        # that a block's r0 rows, transposed, are contiguous
        nq, nt = geo.qw.shape
        slices = [slice(start, start + self._n) for start in range(0, nt, self._n)]
        if self._kept is None and self._evaluated and self._classes is None:
            self._kept = list(map(self.rows, slices))
            self._r0 = np.asfortranarray(self._r0)
        self._evaluated = True
        # one product per element gives its residual at the element
        # points and the fluxes of its three sides, written element-minor:
        # row j of a block's ``out`` holds row j of each element's product.
        # The residual is squared and summed in its block; the flux rows
        # stay element-minor for the whole level, (3 nq_s, nt).  A block
        # that is not kept, and the block's coefficients, are freed before
        # the next block's are formed
        fluxes = np.empty((3 * geo.elements.S.shape[2], nt))
        eta_sq = np.empty(nt)
        for i, sl in enumerate(slices):
            block = self._kept[i] if self._kept else self.rows(sl)
            out = np.empty(block.shape[1::-1])
            np.matmul(block, full[space.cell_dofs[sl], None], out=out.T[:, :, None])
            fluxes[:, sl] = out[nq:]
            r = out[:nq]
            r += _block(self._r0, sl).T
            eta_sq[sl] = np.multiply(geo.qw[:, sl] * r, r, out=r).sum(axis=0)
            del block, out, r
        del full

        # an interior jump sums its two sides; one flux row per edge
        # broadcasts over the edge points.  Each level-size array is
        # dropped once the next is formed from it
        jump = geo.edge_sums(fluxes.reshape(3, -1, nt).swapaxes(0, 1))
        del fluxes
        if self._flux0 is not None:
            jump = jump - self._flux0
        sq = jump * geo.w_e[:, None]
        sq *= jump
        del jump
        contrib = geo.elen * sq.sum(axis=0)
        del sq
        # left and right sides both get their interior edge's term; the
        # last slot is the zero of the elements with fewer than three sides
        ns, ni = geo.tris.size, geo.n_int
        values = np.empty(ns + 1)
        values[:ni], values[ni:ns], values[ns] = contrib[:ni], contrib, 0.0
        values[:ns] *= geo.weight
        del contrib
        geo.add_sides(eta_sq, values)
        return IndicatorField(eta_sq=eta_sq)


def indicators(space, problem, v, which="primal"):
    """One-shot indicator computation: the element pass of the assembly,
    without its sparse matrices, and a workspace."""
    geometry = EstimatorGeometry(space, _element_pass(space, problem))
    return EstimatorWorkspace(geometry, which).indicators(v)
