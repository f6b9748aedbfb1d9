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
divergence of the flux data enters through the user-supplied
``div_f_vec``/``div_g_vec`` fields and is zero by default, which is
exact for piecewise-constant data away from its discontinuity lines.

The indicators are affine in the coefficient vector.  What does not
depend on the iterate is built once per level: the element data come
from the assembly pass (:class:`goafem.assemble.ElementData`) and
:class:`EstimatorGeometry` adds the edge and second-order terms, shared
by the primal and the dual :class:`EstimatorWorkspace`, so that the
re-evaluation after every algebraic solver step reduces to a few batched
matrix products.  All edge terms live on one side set, ordered as the
left sides of the interior edges, their right sides and the Neumann
sides: one product gives every one-sided flux, an interior jump is the
sum of its two sides, and one accumulation adds each edge term, with the
weight 0.5 or 1.0 times sqrt|T|, to the elements in that order.

Like the element pass, the geometry computes rows only for the new
elements and their sides.  The rows of an element that refine kept, and
of its sides, are copied from the previous level by parent id: the
driver cuts them to the kept elements right after ``refine``
(:meth:`EstimatorGeometry.take`), and each carried array is dropped
once copied.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import problem as prob
from .assemble import _CHUNK, _apply_diffusion, _element_pass, carried_rows, kept_rows
from .basis import edge_grad_tables, triangle_tables
from .mesh import NEUMANN
from .quadrature import interval_rule
from .space import DiscreteFunction


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
    subset = np.asarray(subset, dtype=np.int64)
    if subset.size and (subset.min() < 0 or subset.max() >= len(field)):
        raise ValueError("subset contains invalid element ids")
    return float(np.sqrt(field.eta_sq[subset].sum()))


@dataclass
class GeometryRows:
    """Rows of an :class:`EstimatorGeometry` for ``n`` of its elements
    (:meth:`EstimatorGeometry.take`): their ``ahess`` rows in their order
    (None at p = 1), and ``S``, ``normal`` and ``x_in`` of their sides in
    side order, with each side's ``element`` (its index among the ``n``)
    and ``local`` edge."""

    n: int
    ahess: Optional[np.ndarray]
    S: np.ndarray
    normal: np.ndarray
    x_in: np.ndarray
    element: np.ndarray
    local: np.ndarray


class EstimatorGeometry:
    """Iterate-independent tensors shared by primal and dual indicators:
    the element data of ``space`` as they are, plus A:Hess phi (p >= 2)
    and the edge terms.  Per side (the ranges ``groups``: left sides of
    the ``n_int`` interior edges, right sides, Neumann sides): the element
    ``tris`` and its ``local`` edge, the flux tensor ``S`` (A grad phi . n
    at the edge points), the outward ``normal``, the trace points ``x_in``
    and the ``weight``; per edge, interior edges first: the length
    ``elen``.

    ``previous`` holds the previous level's rows of the elements that the
    refine step making ``space.mesh`` kept, in their order
    (``take(mesh.parent[mesh.kept])``).  Their ``ahess`` rows and the rows
    of their sides are copied, each array of ``previous`` is dropped once
    copied, and only the other rows are computed.  A kept
    element keeps its vertices, their order and its edges, so each of its
    sides keeps its edge points, normal and flux tensor, also where the
    neighbour across the edge was refined.  Its sides also keep their
    order: sides are ordered by range and then by edge, refinement keeps
    the order of the old edges, and children take their parent's place,
    so a kept element stays on its side of an interior edge.
    """

    def __init__(self, space, elements, problem, previous=None):
        self.space = space
        self.problem = problem
        self.elements = el = elements
        mesh = space.mesh
        kept = kept_rows(mesh, None if previous is None else previous.n)
        # element integration weights |T| * 2|T| w_q
        self.qw = mesh.areas[:, None] * el.scale

        if space.p >= 2:
            if callable(problem.A):
                raise NotImplementedError(
                    "second-order residual terms need a constant diffusion matrix")
            # A:Hess phi = sum_{b,e} d2 phi/dl_b dl_e (glam_b . A glam_e);
            # contracting the barycentric metric first avoids the full
            # Hessian tensor
            A = np.asarray(problem.A, dtype=float).reshape(2, 2)
            nq, nd = el.val.shape
            d2flat = triangle_tables(space.p, 2 * space.p + 2)[2].reshape(nq * nd, 9)
            new = np.flatnonzero(~kept)
            glam = el.glam[new]
            metric = np.matmul(glam @ A, glam.transpose(0, 2, 1))
            self.ahess = carried_rows((mesh.n_triangles, nq, nd), np.flatnonzero(kept),
                                      previous, "ahess")
            self.ahess[new] = np.matmul(d2flat[None, :, :],
                                        metric.reshape(-1, 9)[:, :, None]).reshape(-1, nq, nd)
        else:
            self.ahess = None

        # ---- edges ----
        edges, _, edge_tri, _, edge_local = mesh._edge_data
        labels = mesh.edge_labels
        int_ids = np.nonzero(labels < 0)[0]
        neu_ids = np.nonzero(labels == NEUMANN)[0]
        self.n_int = ni = int_ids.size
        nn = neu_ids.size
        # the side ranges: left of interior edges, right of them, Neumann
        self.groups = (slice(0, ni), slice(ni, 2 * ni), slice(2 * ni, None))
        eids = np.concatenate([int_ids, int_ids, neu_ids])
        side = np.repeat([0, 1, 0], [ni, ni, nn])
        self.tris = edge_tri[eids, side]
        self.local = edge_local[eids, side].astype(np.int8)     # 0, 1 or 2
        # per edge: first point and direction, edges[:, 0] -> edges[:, 1]
        pa = mesh.vertices[edges[eids[ni:], 0]]
        dvec = mesh.vertices[edges[eids[ni:], 1]] - pa
        self.elen = np.linalg.norm(dvec, axis=1)
        self.weight = np.repeat([0.5, 1.0], [2 * ni, nn]) * np.sqrt(mesh.areas)[self.tris]

        # the sides of kept elements are copied, the others computed
        copied = kept[self.tris]
        t_pts, self.w_e = interval_rule(2 * space.p + 2)
        nq_e = t_pts.shape[0]
        nb = space.basis.n
        if previous is not None and not (
                np.array_equal(previous.local, self.local[copied])
                and np.array_equal(previous.element, (np.cumsum(kept) - 1)[self.tris[copied]])):
            raise ValueError("previous geometry rows are not the sides of the kept elements")
        at_copied = np.flatnonzero(copied)
        self.S, self.normal, self.x_in = (
            carried_rows((self.tris.size,) + shape, at_copied, previous, name)
            for name, shape in (("S", (nq_e, nb)), ("normal", (2,)), ("x_in", (nq_e, 2))))

        tabs = edge_grad_tables(space.p, 2 * space.p + 2)
        verts = mesh.vertices[mesh.triangles]
        centroids = (verts[:, 0] + verts[:, 1] + verts[:, 2]) / 3.0
        # each side's edge in pa, dvec and elen
        edge_of = np.concatenate([np.arange(ni), np.arange(ni + nn)])
        new = np.flatnonzero(~copied)
        for start in range(0, new.size, _CHUNK):
            ids = new[start:start + _CHUNK]
            e = edge_of[ids]
            tris = self.tris[ids]
            # edge points and the unit normal right of the edge's direction
            x = pa[e][:, None, :] + t_pts[None, :, None] * dvec[e][:, None, :]
            n = np.stack([dvec[e, 1], -dvec[e, 0]], axis=1) / self.elen[e][:, None]
            # local edge i joins local vertices i + 1 and i + 2; the edge
            # points run from the smaller global vertex id edges[:, 0]
            le = self.local[ids]
            i1 = (le + 1) % 3
            i2 = (le + 2) % 3
            fwd = mesh.triangles[tris, i1] == edges[eids[ids], 0]
            la = np.where(fwd, i1, i2)
            lb = np.where(fwd, i2, i1)
            t6 = tabs[la * 3 + lb].reshape(-1, nq_e * nb, 3)
            grad = np.matmul(t6, el.glam[tris]).reshape(-1, nq_e, nb, 2)
            # triangles are positively oriented, so local edge i runs
            # counter-clockwise from i + 1 to i + 2 and its outward normal
            # is its right-hand one: n where the run is fwd, -n elsewhere.
            # The jump across an interior edge is the sum of its two sides
            n = self.normal[ids] = np.where(fwd[:, None], n, -n)
            agrad = _apply_diffusion(problem.A, x, grad)
            self.S[ids] = np.matmul(agrad.reshape(-1, nq_e * nb, 2),
                                    n[:, :, None]).reshape(-1, nq_e, nb)
            # one-sided trace points for the flux data
            self.x_in[ids] = x + 1e-6 * (centroids[tris][:, None, :] - x)

    def take(self, rows):
        """The :class:`GeometryRows` of the elements ``rows``, in that order."""
        rank = np.full(self.space.mesh.n_triangles, -1)
        rank[rows] = np.arange(len(rows))
        element = rank[self.tris]
        mine = np.flatnonzero(element >= 0)
        side_rows = {name: np.take(values, mine, axis=0) for name, values in (
            ("S", self.S), ("normal", self.normal), ("x_in", self.x_in),
            ("element", element), ("local", self.local))}
        return GeometryRows(n=len(rows), ahess=None if self.ahess is None else np.take(
            self.ahess, rows, axis=0), **side_rows)

    def edge_sums(self, values):
        """Per-edge sums of per-side rows: left + right on an interior
        edge, the side itself on a Neumann edge."""
        left, right, neumann = (values[g] for g in self.groups)
        return np.concatenate([left + right, neumann])


class EstimatorWorkspace:
    """Residual tensors of one side (primal or dual) on one level."""

    def __init__(self, geometry, which):
        if which not in ("primal", "dual"):
            raise ValueError("which must be 'primal' or 'dual'")
        self.geo = geometry
        problem = geometry.problem
        el = geometry.elements

        # element residual: r = R . coeffs + r0 with
        # R_i = -A:Hess phi_i + sign b.grad phi_i + c_eff phi_i, sign = +1
        # primal and -1 dual, summed in place into one (nt, nq, nd) tensor
        if which == "dual":
            c_eff = el.c - prob.eval_scalar(problem.div_b, el.x)
            r0 = prob.eval_scalar(problem.div_g_vec, el.x) - el.g
            d_vec = problem.g_vec
        else:
            c_eff = el.c
            r0 = prob.eval_scalar(problem.div_f_vec, el.x) - el.f
            d_vec = problem.f_vec
        R = c_eff[:, :, None] * el.val[None, :, :]
        if which == "dual":
            R -= el.conv
        else:
            R += el.conv
        if geometry.ahess is not None:
            R -= geometry.ahess
        self._R = R
        self._r0 = r0

        # the flux data's part of each edge term, None when it is zero;
        # evaluated per side range, so its temporaries are one range's
        if prob.is_zero(d_vec):
            self._flux0 = None
        else:
            self._flux0 = geometry.edge_sums(np.concatenate([
                np.einsum("xqd,xd->xq", prob.eval_vector(d_vec, geometry.x_in[g]),
                          geometry.normal[g]) for g in geometry.groups]))

    def indicators(self, v):
        """Squared indicators of the iterate ``v``."""
        geo = self.geo
        space = geo.space
        if isinstance(v, DiscreteFunction):
            full = v.full()
        else:
            full = space.full(np.asarray(v, dtype=float))
        coeffs = full[space.cell_dofs]

        r = np.matmul(self._R, coeffs[:, :, None])[:, :, 0] + self._r0
        eta_sq = (geo.qw * r * r).sum(axis=1)

        # one flux per side; an interior jump sums its two sides
        jump = geo.edge_sums(np.matmul(geo.S, coeffs[geo.tris][:, :, None])[:, :, 0])
        if self._flux0 is not None:
            jump -= self._flux0
        contrib = geo.elen * ((geo.w_e[None, :] * jump) * jump).sum(axis=1)
        # left and right sides both get their interior edge's term
        np.add.at(eta_sq, geo.tris, geo.weight * np.concatenate([contrib[:geo.n_int], contrib]))
        return IndicatorField(eta_sq=eta_sq)


def indicators(space, problem, v, which="primal"):
    """One-shot indicator computation: the element pass of the assembly,
    without its sparse matrices, and a workspace."""
    geometry = EstimatorGeometry(space, _element_pass(space, problem), problem)
    return EstimatorWorkspace(geometry, which).indicators(v)
