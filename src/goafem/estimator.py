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
from the assembly pass (:class:`goafem.assemble.ElementData` on the
system) and :class:`EstimatorGeometry` adds the edge and second-order
terms, shared by the primal and the dual :class:`EstimatorWorkspace`,
so that the re-evaluation after every algebraic solver step reduces to
a few batched matrix products.
"""

from dataclasses import dataclass

import numpy as np

from . import problem as prob
from .assemble import _apply_diffusion, assemble
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
    the element data of ``system`` as they are, plus A:Hess phi (p >= 2)
    and the edge terms."""

    def __init__(self, system, problem):
        space = system.space
        el = system.elements
        self.space = space
        self.problem = problem
        self.elements = el
        mesh = space.mesh
        areas = mesh.areas
        self.sqrt_area = np.sqrt(areas)
        # element integration weights |T| * 2|T| w_q
        self.qw = areas[:, None] * el.scale
        glam = el.glam

        if space.p >= 2:
            if callable(problem.A):
                raise NotImplementedError(
                    "second-order residual terms need a constant diffusion matrix")
            # A:Hess phi = sum_{b,e} d2 phi/dl_b dl_e (glam_b . A glam_e);
            # contracting the barycentric metric first avoids the full
            # Hessian tensor
            A = np.asarray(problem.A, dtype=float).reshape(2, 2)
            nt = mesh.n_triangles
            nq, nd = el.val.shape
            d2flat = triangle_tables(space.p, 2 * space.p + 2)[2].reshape(nq * nd, 9)
            metric = np.matmul(glam @ A, glam.transpose(0, 2, 1))
            self.ahess = np.matmul(d2flat[None, :, :],
                                   metric.reshape(nt, 9)[:, :, None]).reshape(nt, nq, nd)
        else:
            self.ahess = None

        # ---- edges ----
        edges, _, edge_tri, _, edge_local = mesh._edge_data
        labels = mesh.edge_labels
        t_pts, w_e = interval_rule(2 * space.p + 2)
        self.w_e = w_e

        tabs = edge_grad_tables(space.p, 2 * space.p + 2)
        nq_e = t_pts.shape[0]
        nb = space.basis.n

        centroids = mesh.vertices[mesh.triangles].mean(axis=1)

        def edge_frame(eids):
            """Quadrature points, unit normal (one orientation) and midpoint
            of the edges ``eids``, shared by both sides, and their lengths."""
            pa = mesh.vertices[edges[eids, 0]]
            pb = mesh.vertices[edges[eids, 1]]
            dvec = pb - pa
            x = pa[:, None, :] + t_pts[None, :, None] * dvec[:, None, :]
            n = np.stack([dvec[:, 1], -dvec[:, 0]], axis=1)
            n /= np.linalg.norm(n, axis=1, keepdims=True)
            return (x, n, 0.5 * (pa + pb)), np.linalg.norm(dvec, axis=1)

        def side_tensor(eids, side, frame):
            x, n, mid = frame
            tris = edge_tri[eids, side]
            # local edge i joins local vertices i + 1 and i + 2; the edge
            # points run from the smaller global vertex id edges[:, 0]
            le = edge_local[eids, side]
            i1 = (le + 1) % 3
            i2 = (le + 2) % 3
            fwd = mesh.triangles[tris, i1] == edges[eids, 0]
            la = np.where(fwd, i1, i2)
            lb = np.where(fwd, i2, i1)
            t6 = tabs[la * 3 + lb].reshape(-1, nq_e * nb, 3)
            grad = np.matmul(t6, glam[tris]).reshape(-1, nq_e, nb, 2)
            # the normal of this side points away from its centroid
            cent = centroids[tris]
            flip = ((cent - mid) * n).sum(axis=1) > 0.0
            n = np.where(flip[:, None], -n, n)
            agrad = _apply_diffusion(problem.A, x, grad)
            S = np.matmul(agrad.reshape(-1, nq_e * nb, 2), n[:, :, None])
            S = S.reshape(-1, nq_e, nb)
            # one-sided trace points for the flux data
            x_in = x + 1e-6 * (cent[:, None, :] - x)
            return tris, S, n, x_in

        int_ids = np.nonzero(labels < 0)[0]
        if int_ids.size:
            frame, elen = edge_frame(int_ids)
            left, S_l, n_l, x_l = side_tensor(int_ids, 0, frame)
            right, S_r, n_r, x_r = side_tensor(int_ids, 1, frame)
            # each side carries its own outward normal, so the jump is the
            # sum of the two one-sided fluxes
            self.int_data = (left, right, S_l, S_r, elen)
            self.int_sides = (n_l, x_l, n_r, x_r)
        else:
            self.int_data = None
            self.int_sides = None

        neu_ids = np.nonzero(labels == NEUMANN)[0]
        if neu_ids.size:
            frame, elen = edge_frame(neu_ids)
            self.neu_data = (*side_tensor(neu_ids, 0, frame), elen)
        else:
            self.neu_data = None


class EstimatorWorkspace:
    """Residual tensors of one side (primal or dual) on one level."""

    def __init__(self, geometry, which):
        if which not in ("primal", "dual"):
            raise ValueError("which must be 'primal' or 'dual'")
        self.space = geometry.space
        self.which = which
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

        if geometry.int_data is not None and not prob.is_zero(d_vec):
            n_l, x_l, n_r, x_r = geometry.int_sides
            self._int_flux0 = (np.einsum("xqd,xd->xq", prob.eval_vector(d_vec, x_l), n_l)
                               + np.einsum("xqd,xd->xq", prob.eval_vector(d_vec, x_r), n_r))
        else:
            self._int_flux0 = None

        if geometry.neu_data is not None:
            tris, S, n, x_in, elen = geometry.neu_data
            dvals = prob.eval_vector(d_vec, x_in)
            self._neu_flux0 = np.einsum("xqd,xd->xq", dvals, n)
        else:
            self._neu_flux0 = None

    def indicators(self, v):
        """Squared indicators of the iterate ``v``."""
        space = self.space
        geo = self.geo
        if isinstance(v, DiscreteFunction):
            full = v.full()
        else:
            full = space.full(np.asarray(v, dtype=float))
        coeffs = full[space.cell_dofs]

        r = np.matmul(self._R, coeffs[:, :, None])[:, :, 0] + self._r0
        eta_sq = (geo.qw * r * r).sum(axis=1)

        w_e = geo.w_e
        if geo.int_data is not None:
            left, right, S_l, S_r, elen = geo.int_data
            jump = np.matmul(S_l, coeffs[left][:, :, None])[:, :, 0]
            jump += np.matmul(S_r, coeffs[right][:, :, None])[:, :, 0]
            if self._int_flux0 is not None:
                jump -= self._int_flux0
            contrib = elen * ((w_e[None, :] * jump) * jump).sum(axis=1)
            np.add.at(eta_sq, left, 0.5 * geo.sqrt_area[left] * contrib)
            np.add.at(eta_sq, right, 0.5 * geo.sqrt_area[right] * contrib)

        if geo.neu_data is not None:
            tris, S, _, _, elen = geo.neu_data
            res = np.matmul(S, coeffs[tris][:, :, None])[:, :, 0] - self._neu_flux0
            contrib = elen * ((w_e[None, :] * res) * res).sum(axis=1)
            np.add.at(eta_sq, tris, geo.sqrt_area[tris] * contrib)

        return IndicatorField(eta_sq=eta_sq)


def indicators(space, problem, v, which="primal"):
    """One-shot indicator computation: assembles the level for its
    element data and builds a workspace."""
    geometry = EstimatorGeometry(assemble(space, problem), problem)
    return EstimatorWorkspace(geometry, which).indicators(v)
