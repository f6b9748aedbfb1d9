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
matrix products.  The edge terms are stored per element and local edge,
so one product per element gives the one-sided fluxes of its three
edges.  The side set reads them from there: the left sides of the
interior edges, their right sides and the Neumann sides; an interior
jump is the sum of its two sides, and one accumulation adds each edge
term, with the weight 0.5 or 1.0 times sqrt|T|, to the elements in that
order.

Like the element pass, the geometry computes rows only for the new
elements and copies those of the kept ones from the finished level's
geometry: the carry, described once in :mod:`goafem.assemble`.
"""

from dataclasses import dataclass

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


class EstimatorGeometry:
    """Iterate-independent tensors shared by primal and dual indicators:
    the element data of ``space`` as they are, plus A:Hess phi (p >= 2)
    and the edge terms.  Per element and local edge (local edge i joins
    local vertices i + 1 and i + 2, its points run from the smaller
    global vertex id): the flux tensor ``S`` (nt, 3, nq_e, nb) of
    A grad phi . n at the edge points, the outward ``normal`` (nt, 3, 2)
    and the trace points ``x_in`` (nt, 3, nq_e, 2).  Per side (left sides
    of the ``n_int`` interior edges, right sides, Neumann sides): the
    element ``tris``, its ``local`` edge and the ``weight``; side s reads
    the slot ``tris[s] * 3 + local[s]`` of the element arrays.  Per edge,
    interior edges first: the length ``elen``.

    ``previous`` is the finished level's geometry: the ``ahess``, ``S``,
    ``normal`` and ``x_in`` rows of the kept elements are copied from it
    and only the other rows are computed (the carry, see
    :mod:`goafem.assemble`).  A kept element keeps its vertices, their
    order and its edges, so each of its edges keeps its points, normal
    and flux tensor, also where the neighbour across the edge was refined.
    """

    def __init__(self, space, elements, problem, previous=None):
        self.space = space
        self.problem = problem
        self.elements = el = elements
        mesh = space.mesh
        nt = mesh.n_triangles
        new, at_kept, parents = kept_rows(mesh, previous)
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
            glam = el.glam[new]
            metric = np.matmul(glam @ A, glam.transpose(0, 2, 1))
            self.ahess = carried_rows((nt, nq, nd), at_kept, parents, previous, "ahess")
            self.ahess[new] = np.matmul(d2flat[None, :, :],
                                        metric.reshape(-1, 9)[:, :, None]).reshape(-1, nq, nd)
        else:
            self.ahess = None

        # ---- sides ----
        edges, _, edge_tri, _, edge_local = mesh._edge_data
        labels = mesh.edge_labels
        int_ids = np.nonzero(labels < 0)[0]
        neu_ids = np.nonzero(labels == NEUMANN)[0]
        self.n_int = ni = int_ids.size
        nn = neu_ids.size
        eids = np.concatenate([int_ids, int_ids, neu_ids])
        side = np.repeat([0, 1, 0], [ni, ni, nn])
        self.tris = edge_tri[eids, side]
        self.local = edge_local[eids, side].astype(np.int8)     # 0, 1 or 2
        # the slots of each edge's first side (left or Neumann) and of the
        # right sides of the interior edges
        slot = self.tris * 3 + self.local
        self._first, self._right = np.concatenate([slot[:ni], slot[2 * ni:]]), slot[ni:2 * ni]
        ends = mesh.vertices[edges[eids[ni:]]]
        self.elen = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
        self.weight = np.repeat([0.5, 1.0], [2 * ni, nn]) * np.sqrt(mesh.areas)[self.tris]

        # ---- edge terms of the new elements, three local edges each ----
        t_pts, self.w_e = interval_rule(2 * space.p + 2)
        nq_e, nb = t_pts.shape[0], space.basis.n
        self.S, self.normal, self.x_in = (
            carried_rows((nt, 3) + shape, at_kept, parents, previous, name)
            for name, shape in (("S", (nq_e, nb)), ("normal", (2,)), ("x_in", (nq_e, 2))))
        tabs = edge_grad_tables(space.p, 2 * space.p + 2)
        i1, i2 = np.array([1, 2, 0]), np.array([2, 0, 1])
        # blocks of _CHUNK edges, three per element
        for start in range(0, new.size, _CHUNK // 3):
            ids = new[start:start + _CHUNK // 3]
            tv = mesh.triangles[ids]
            verts = mesh.vertices[tv]
            # each local edge runs from la, its vertex of smaller global id, to lb
            fwd = tv[:, i1] < tv[:, i2]
            la = np.where(fwd, i1, i2)
            lb = np.where(fwd, i2, i1)
            pa = np.take_along_axis(verts, la[:, :, None], axis=1).reshape(-1, 2)
            dvec = np.take_along_axis(verts, lb[:, :, None], axis=1).reshape(-1, 2) - pa
            x = pa[:, None, :] + t_pts[None, :, None] * dvec[:, None, :]
            n = np.stack([dvec[:, 1], -dvec[:, 0]], axis=1) / np.linalg.norm(dvec, axis=1)[:, None]
            t6 = tabs[la * 3 + lb].reshape(-1, nq_e * nb, 3)
            grad = np.matmul(t6, np.repeat(el.glam[ids], 3, axis=0)).reshape(-1, nq_e, nb, 2)
            # triangles are positively oriented, so local edge i runs
            # counter-clockwise from i + 1 to i + 2 and its outward normal
            # is the right-hand one of la -> lb where that is fwd, its
            # negative elsewhere; an interior jump sums its two sides
            n = np.where(fwd.reshape(-1, 1), n, -n)
            self.normal[ids] = n.reshape(-1, 3, 2)
            agrad = _apply_diffusion(problem.A, x, grad)
            self.S[ids] = np.matmul(agrad.reshape(-1, nq_e * nb, 2),
                                    n[:, :, None]).reshape(-1, 3, nq_e, nb)
            # one-sided trace points for the flux data
            x = x.reshape(-1, 3, nq_e, 2)
            centroids = (verts[:, 0] + verts[:, 1] + verts[:, 2]) / 3.0
            self.x_in[ids] = x + 1e-6 * (centroids[:, None, None, :] - x)

    def __len__(self):
        return self.space.mesh.n_triangles

    def edge_sums(self, values):
        """Per-edge sums of the side rows of element-major ``values`` (nt, 3, ...):
        left + right on an interior edge, the side itself on a Neumann edge."""
        rows = values.reshape((-1,) + values.shape[2:])
        sums = np.take(rows, self._first, axis=0)
        sums[:self.n_int] += np.take(rows, self._right, axis=0)
        return sums


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
        # evaluated in blocks of _CHUNK edges, so its temporaries are one block's
        if prob.is_zero(d_vec):
            self._flux0 = None
        else:
            dn = np.empty(geometry.S.shape[:3])
            for start in range(0, dn.shape[0], _CHUNK // 3):
                b = slice(start, start + _CHUNK // 3)
                dn[b] = np.einsum("xeqd,xed->xeq", prob.eval_vector(d_vec, geometry.x_in[b]),
                                  geometry.normal[b])
            self._flux0 = geometry.edge_sums(dn)

    def indicators(self, v):
        """Squared indicators of the iterate ``v``."""
        geo = self.geo
        space = geo.space
        if isinstance(v, DiscreteFunction):
            full = v.full()
        else:
            full = space.full(np.asarray(v, dtype=float))
        coeffs = full[space.cell_dofs]

        # in place: each (nt, nq) temporary costs more than its arithmetic
        r = np.matmul(self._R, coeffs[:, :, None])[:, :, 0]
        r += self._r0
        eta_sq = np.multiply(geo.qw * r, r, out=r).sum(axis=1)
        del r       # before the edge terms' temporaries

        # one product per element gives the fluxes of its three sides;
        # an interior jump sums its two sides
        nt, nb = coeffs.shape
        jump = geo.edge_sums(np.matmul(geo.S.reshape(nt, -1, nb),
                                       coeffs[:, :, None]).reshape(nt, 3, -1))
        if self._flux0 is not None:
            jump -= self._flux0
        # summed over the edge points (at most 5) column by column: numpy
        # adds fewer than 8 terms in order, so these are its row sums,
        # without its slow loop over short rows
        terms = [(w * jump[:, q]) * jump[:, q] for q, w in enumerate(geo.w_e)]
        contrib = geo.elen * sum(terms[1:], terms[0])
        # left and right sides both get their interior edge's term
        np.add.at(eta_sq, geo.tris, geo.weight * np.concatenate([contrib[:geo.n_int], contrib]))
        return IndicatorField(eta_sq=eta_sq)


def indicators(space, problem, v, which="primal"):
    """One-shot indicator computation: the element pass of the assembly,
    without its sparse matrices, and a workspace."""
    geometry = EstimatorGeometry(space, _element_pass(space, problem), problem)
    return EstimatorWorkspace(geometry, which).indicators(v)
