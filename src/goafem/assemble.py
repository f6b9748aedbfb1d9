"""Assembly of the nonsymmetric form, its symmetric part and the loads.

The bilinear form is b(u, v) = a(u, v) + (b_conv . grad u + c u, v) with
principal part a(u, v) = (A grad u, grad v); the matrix convention is
B[i, j] = b(phi_j, phi_i).  The dual problem is solved with B^T, no
separate assembly.  Quadrature is exact for polynomials of degree
2p + 2, which covers all bilinear terms of the benchmarks.

Each level makes one pass over its elements, in :func:`assemble`, and
it is the only code that evaluates problem data at element points.
b . grad phi, the values of c, the element matrices of the principal
part, the element loads and the residual estimator's zero-order,
second-order and edge terms are computed once, build B, A_sym, F and G,
and stay on the :class:`AssembledSystem` as its :class:`ElementData`,
which the estimator reads instead of evaluating them again.  Only rows
that vary from element to element are stored: a zero-order row (c,
c - div b, div f_vec - f, div g_vec - g) formed from constant data
alone is one (1, 1) row, which every reader broadcasts.  Whether a
datum is constant is a property of the problem: it is one that is not
callable.  The quadrature weights 2|T| w_q are not stored either; the
pass, :func:`_full_form` and the estimator form them from
``mesh.areas`` where they read them (:func:`quadrature_weights`; the
estimator forms the same bits element-minor).  Points and gradients
are temporaries of the pass.

The rows formed from an element's shape alone, the element matrices of
the principal part, A:Hess phi and the edge fluxes A grad phi . n, are
stored once per shape class, with an int32 class id per element.  Two
elements share a class when the bits these rows are formed from are
equal: their edge vectors p2 - p1, p0 - p2 and p1 - p0 (the vertices'
differences give the area and the barycentric gradients, the edges'
directions and normals), the orientations of their edges (by global
vertex id) and, for a callable A, which is evaluated at the element's
points, their vertices.  Newest-vertex bisection makes few shapes: the
last level of goal-singularity at p = 1 to the estimator product
5.5e-5 has 80 classes for 32,219 elements.  The classes are keyed
afresh from every element of each level, so the class ids are a
function of the mesh alone.  The pass forms each class's rows once, in
the first block of new elements that meets it, from the gradients and
normals the block forms for its element rows.  The edge fluxes are one
row per edge, nq_s = 1, at p = 1 with a constant A, where grad phi and
A are constant along the edge; otherwise, at p >= 2 or for a callable
A, they are one row per edge point, nq_s = nq_e.  At p = 1 grad phi is
constant on the element too: the element rows read one gradient row,
and b . grad phi is one product per basis function with the b-field
rows as the matrix, in the bits of one per point (two-term products
commute).  The loads, their density and flux parts, and f_vec . n,
g_vec . n keep the bits of the ``np.einsum`` forms they replace: per
point the product of its terms, then the points in order from +0.0.

A level computes its rows only for its new elements; this is the
carry, and the only one.  An element that refine kept (the only child
of its parent, ``Triangulation.kept``) keeps its vertices and their
order, hence its edges and their points and normals, also where the
neighbour across an edge was refined.  Every row depends on them alone,
so its rows are copied, bit for bit, from the row of its parent in the
finished level's own data: ``previous.<name>[mesh.parent[kept]]``; a
(1, 1) row is not copied, as it holds no row of any element.  A class
that holds a kept element copies its class rows in the same way, from
the parent's class, whose key has the same bits; only a class of new
elements alone forms them.  The one check is that ``previous`` is the
level ``mesh`` refines (:func:`kept_rows`), made before any array is
touched.  Each array of ``previous`` is dropped once it is copied, so
the finished level's rows are freed one array at a time.  What couples
the elements, the dof map, the sparse matrices, the load sums and the
estimator's side set, is rebuilt on every level.

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
core: numpy work right after it ran about 10% slower.  Their sparse
products, and every one of a solver step, go through :func:`_matvec`,
which calls the C kernel that ``M @ x`` ends in, ``csr_matvec`` or
``csc_matvec`` of ``scipy.sparse._sparsetools``, with the same arguments
and a zero output, so the bits are those of ``M @ x``.  It skips
scipy's Python dispatch, about 4 us a product, which at the last levels
of a run cost as much as the kernels: a V-cycle makes 5 + 4 (L - 1) of
them.  The kernel reads ``x`` without bounds checks, so ``_matvec``
checks its shape first.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools

from . import problem as prob
from .basis import edge_grad_tables, triangle_tables
from .mesh import check_refines
from .quadrature import interval_rule, triangle_rule
from .space import DiscreteFunction, grad_lambda

# elements per block of the pass: the per-point basis gradients and the
# products formed from them live for one block, not for the whole level
_CHUNK = 4096
# the local vertices i + 1 and i + 2 that local edge i joins
_I1, _I2 = np.array([1, 2, 0]), np.array([2, 0, 1])


@dataclass
class ElementData:
    """What one level's element pass computes, one row per element or per
    shape class.

    ``val`` (nq, nd) holds the basis values at the reference points,
    shared by all rows; ``conv`` (nt, nq, nd) the values of
    b_conv . grad phi, ``c`` (nt, nq) those of c, ``a_loc`` (nc, nd, nd)
    the element matrices of the principal part and ``f_loc``, ``g_loc``
    (nt, nd) the element loads.  The weights 2|T| w_q are not stored:
    :func:`quadrature_weights` forms them from ``mesh.areas`` where they
    are read.  The element matrices of the full form follow from these
    rows (:func:`_full_form`).

    The estimator's rows: the zero-order terms ``c_dual`` = c - div b,
    ``f_res`` = div f_vec - f and ``g_res`` = div g_vec - g (nt, nq);
    ``ahess`` (nc, nq, nd) A:Hess phi, None at p = 1 and for a callable
    A; per local edge (edge i joins local vertices i + 1 and i + 2, its
    points run from the smaller global vertex id, n is outward) ``S``
    (nc, 3, nq_s, nd) A grad phi . n at the edge points, where nq_s = 1
    at p = 1 with a constant A, as the flux is constant along the edge,
    and nq_s = nq_e otherwise, and ``f_edge``,
    ``g_edge`` (nt, 3, nq_e) f_vec . n and g_vec . n at the one-sided
    trace points (see :mod:`goafem.estimator`), None for identically
    zero flux data.

    A zero-order row (``c``, ``c_dual``, ``f_res``, ``g_res``) formed
    from constant data only is one (1, 1) row, which broadcasts over
    every element and point; a reader broadcasts it, never indexes it.

    ``a_loc``, ``ahess`` and ``S`` are formed from an element's shape
    alone, and are stored once per shape class (nc of them): element t
    reads row ``shape[t]`` (int32, (nt,)), as in ``a_loc[shape]``.
    """

    val: np.ndarray
    shape: np.ndarray
    conv: np.ndarray
    c: np.ndarray
    c_dual: np.ndarray
    f_res: np.ndarray
    g_res: np.ndarray
    a_loc: np.ndarray
    f_loc: np.ndarray
    g_loc: np.ndarray
    S: np.ndarray
    ahess: Optional[np.ndarray] = None
    f_edge: Optional[np.ndarray] = None
    g_edge: Optional[np.ndarray] = None

    def __len__(self):
        return self.shape.size


def kept_rows(mesh, previous):
    """The elements of ``mesh`` split by where their rows come from: the
    ids of the new ones, whose rows are computed, of the kept ones, and
    of the parents of these, whose rows of ``previous`` they copy.
    ``previous`` must be the finished level that ``mesh`` refines; none
    is kept without one."""
    kept = np.zeros(mesh.n_triangles, dtype=bool)
    if previous is not None:
        check_refines(mesh, len(previous))
        kept = mesh.kept
    at = np.flatnonzero(kept)
    return np.flatnonzero(~kept), at, mesh.parent[at]


def carried_rows(shape, at, parents, previous, name):
    """An array of ``shape``, one row per element, whose rows ``at`` are
    the rows ``parents`` of ``previous.<name>``; ``previous`` drops that
    array once it is copied.  Without a previous level the array is left
    empty.  The other rows are left to be computed."""
    out = np.empty(shape)
    if previous is not None:
        out[at] = getattr(previous, name)[parents]
        setattr(previous, name, None)
    return out


def _zero_order_row(values, new, at, parents, previous, name):
    """The level's zero-order row ``name`` from its ``values`` at the points
    of the elements ``new``; the rows ``at`` are copied as by
    :func:`carried_rows`.  A (1, 1) row of constant data is the level's
    row itself: it broadcasts, and the carry does not copy it."""
    if values.shape == (1, 1):
        if previous is not None:
            setattr(previous, name, None)
        return values
    out = carried_rows((new.size + at.size,) + values.shape[1:], at, parents, previous, name)
    out[new] = values
    return out


def _at_points(datum, x):
    """A scalar datum at the points ``x``; a constant is one (1, 1) row."""
    return prob.eval_scalar(datum, x) if callable(datum) else np.full((1, 1), float(datum))


def quadrature_weights(space, rows=slice(None)):
    """The weights 2|T| w_q of the element rule at the elements ``rows``,
    (n, nq), formed from ``mesh.areas``.  A kept element has its parent's
    vertices, hence the bits of its parent's weights."""
    w = triangle_rule(2 * space.p + 2)[1]
    return 2.0 * space.mesh.areas[rows][:, None] * w[None, :]


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


def _shape_classes(tv, xy, by_vertices):
    """The shape classes of the elements of vertex ids ``tv`` (n, 3) and
    vertex coordinates ``xy`` = ``vertices.T[:, tv.T]`` (2, 3, n): the
    first element of each class, and the class of each element among
    them, as positions in ``tv``.  Two elements share a class when the
    bits that every class row is formed from are equal: their edge
    vectors p2 - p1, p0 - p2 and p1 - p0, the orientations of their
    edges and, with ``by_vertices``, their vertices.

    A stable sort of the key columns puts equal keys side by side; a
    class starts where any key row differs from the column before, and
    its first element is its smallest position."""
    n = tv.shape[0]
    key = np.empty((15 if by_vertices else 9, n), dtype=np.int64)
    np.subtract(xy[:, _I2], xy[:, _I1], out=key[:6].view(np.float64).reshape(2, 3, n))
    np.less(tv[:, _I1].T, tv[:, _I2].T, out=key[6:9], casting="unsafe")
    if by_vertices:
        key[9:] = xy.reshape(6, n).view(np.int64)
    order = np.lexsort(key)
    key = np.take(key, order, axis=1)
    starts = np.ones(n, dtype=bool)
    np.any(key[:, 1:] != key[:, :-1], axis=0, out=starts[1:])
    inverse = np.empty(n, dtype=np.int32)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def _frame(space, rows, dbary):
    """What the rows of the elements ``rows`` are formed from: the weights
    2|T| w_q (n, nq), the barycentric gradients (n, 3, 2), the basis
    gradients (n, nq, nd, 2), from ``dbary`` (nq, nd, 3), and per local
    edge its vertex of smaller global id ``la``, its vector from there
    and its outward normal, each (n, 3[, 2])."""
    mesh = space.mesh
    tv = mesh.triangles[rows]
    verts = mesh.vertices[tv]
    glam = grad_lambda(mesh, rows)
    grad = np.matmul(dbary.reshape(-1, 3)[None, :, :], glam).reshape(
        (-1,) + dbary.shape[:2] + (2,))
    fwd = tv[:, _I1] < tv[:, _I2]
    la = np.where(fwd, _I1, _I2)
    lb = np.where(fwd, _I2, _I1)
    dvec = (np.take_along_axis(verts, lb[:, :, None], axis=1)
            - np.take_along_axis(verts, la[:, :, None], axis=1))
    n = np.stack([dvec[..., 1], -dvec[..., 0]], axis=-1) / np.linalg.norm(
        dvec, axis=-1)[..., None]
    # triangles are positively oriented, so local edge i runs
    # counter-clockwise from i + 1 to i + 2 and its outward normal is the
    # right-hand one of la -> lb where that is fwd, its negative
    # elsewhere; an interior jump sums its two sides
    n = np.where(fwd[:, :, None], n, -n)
    return quadrature_weights(space, rows), glam, grad, la, dvec, n


def _element_pass(space, problem, previous=None):
    """One pass over the elements of ``space``: their :class:`ElementData`.

    ``previous`` is the finished level's :class:`ElementData`; the rows of
    the kept elements are copied from it and only the other rows are
    computed (the carry, see the module docstring).  This is the one
    place where problem data is evaluated at element points: each
    coefficient once, at all points of the computed rows.  The classes
    are keyed from every element of the level.  One loop over blocks of
    ``_CHUNK // 3`` new elements forms the frame of the block's classes,
    from one element of each, and from it the rows of those of them that
    have none yet, then the element and edge rows; the frame lives for
    one block only.  A class that holds no kept element holds a new one,
    so every class has its rows after the loop.
    """
    mesh = space.mesh
    new, at_kept, parents = kept_rows(mesh, previous)
    bary = triangle_rule(2 * space.p + 2)[0]
    val, dbary, d2bary = triangle_tables(space.p, 2 * space.p + 2)  # (nq, nd), (nq, nd, 3, [3])
    nq, nd = val.shape
    t_pts = interval_rule(2 * space.p + 2)[0]
    nq_e = t_pts.size
    tabs = edge_grad_tables(space.p, 2 * space.p + 2)
    by_vertices = callable(problem.A)
    # A grad phi . n is constant along an edge at p = 1 with a constant A:
    # one row per edge; a callable A varies along it
    nq_s = 1 if space.p == 1 and not by_vertices else nq_e
    shapes = {"conv": (nq, nd), "f_loc": (nd,), "g_loc": (nd,)}
    class_shapes = {"a_loc": (nd, nd), "S": (3, nq_s, nd)}
    # A:Hess phi only where the estimator can form it from a constant A
    if space.p >= 2 and not by_vertices:
        class_shapes["ahess"] = (nq, nd)
        A = np.asarray(problem.A, dtype=float).reshape(2, 2)
        d2flat = d2bary.reshape(nq * nd, 9)
    for name, flux in (("f_edge", problem.f_vec), ("g_edge", problem.g_vec)):
        if not prob.is_zero(flux):
            shapes[name] = (3, nq_e)
    varying = {name: carried_rows((mesh.n_triangles,) + shape, at_kept, parents, previous, name)
               for name, shape in shapes.items()}

    # the class rows.  A class that holds a kept element copies them from
    # the class of its parent in the finished level, which has the same
    # key bits; the other classes form them in the loop over new elements
    xy = mesh.vertices.T[:, mesh.triangles.T]
    reps, ids = _shape_classes(mesh.triangles, xy, by_vertices)
    source = np.full(reps.size, -1)
    if previous is not None:
        source[ids[at_kept]] = previous.shape[parents]
        previous.shape = None
    copied = np.flatnonzero(source >= 0)
    tables = {name: carried_rows((reps.size,) + shape, copied, source[copied], previous, name)
              for name, shape in class_shapes.items()}

    # the problem data at the points of the computed rows; the zero-order
    # rows of constant data are one (1, 1) row each
    x = np.matmul(bary[None, :, :], mesh.vertices[mesh.triangles[new]])
    if not problem.spd_spot_check(x[:8].reshape(-1, 2)):
        raise ValueError("diffusion matrix A is not symmetric positive definite")
    c, f, g = (_at_points(datum, x) for datum in (problem.c, problem.f, problem.g))
    zero_order = {"c": c, "c_dual": c - _at_points(problem.div_b, x),
                  "f_res": _at_points(problem.div_f_vec, x) - f,
                  "g_res": _at_points(problem.div_g_vec, x) - g}
    data = ElementData(val=val, shape=ids, **varying, **tables, **{
        name: _zero_order_row(values, new, at_kept, parents, previous, name)
        for name, values in zero_order.items()})
    bfield = prob.eval_vector(problem.b_conv, x)
    # (density, flux data at the points, load rows); data that is
    # identically zero is None and adds nothing to the load
    loads = [(None if prob.is_zero(dens) else np.broadcast_to(values, x.shape[:-1]),
              None if prob.is_zero(flux) else prob.eval_vector(flux, x), loc)
             for dens, flux, values, loc in ((problem.f, problem.f_vec, f, data.f_loc),
                                             (problem.g, problem.g_vec, g, data.g_loc))]
    edge_data = [(rows, flux) for rows, flux in ((data.f_edge, problem.f_vec),
                                                 (data.g_edge, problem.g_vec))
                 if rows is not None]
    del x, c, f, g, zero_order

    for start in range(0, new.size, _CHUNK // 3):
        sl = slice(start, start + _CHUNK // 3)
        rows = new[sl]
        # the block's classes, sorted, and each element's among them
        classes, inverse = np.unique(ids[rows], return_inverse=True)
        frame = _frame(space, reps[classes], dbary)
        # the rows of the block's classes that have none (source < 0)
        fresh = np.flatnonzero(source[classes] < 0)
        at = classes[fresh]
        source[at] = at
        scale, glam, grad, la, dvec, n = (a[fresh] for a in frame)
        points = edge_points = None
        if by_vertices:
            points = np.matmul(bary[None, :, :], mesh.vertices[mesh.triangles[reps[at]]])
            edge_points = _edge_points(xy[:, :, reps[at]], la, dvec, t_pts).transpose(
                3, 1, 2, 0).reshape(-1, nq_e, 2)
        tables["a_loc"][at] = _weighted_gram(scale, _apply_diffusion(problem.A, points, grad), grad)
        if "ahess" in tables:
            # A:Hess phi = sum_{b,e} d2 phi/dl_b dl_e (glam_b . A glam_e);
            # contracting the barycentric metric first avoids the full
            # Hessian tensor
            metric = np.matmul(glam @ A, glam.transpose(0, 2, 1))
            tables["ahess"][at] = np.matmul(d2flat[None, :, :],
                                            metric.reshape(-1, 9)[:, :, None]).reshape(-1, nq, nd)
        lb = _I1 + _I2 - la  # the other end of each local edge
        t6 = tabs[la * 3 + lb][:, :nq_s].reshape(-1, nq_s * nd, 3)
        egrad = np.matmul(t6, np.repeat(glam, 3, axis=0)).reshape(-1, nq_s, nd, 2)
        agrad = _apply_diffusion(problem.A, edge_points, egrad)
        tables["S"][at] = np.matmul(agrad.reshape(-1, nq_s * nd, 2),
                                    n.reshape(-1, 2, 1)).reshape(-1, 3, nq_s, nd)
        grads = frame[2][:, :1] if space.p == 1 else frame[2]    # constant at p = 1
        scale, grad, la, dvec, n = (a[inverse] for a in (frame[0], grads) + frame[3:])

        # the element rows, from the gradients and normals of their class
        if space.p == 1:
            # grad phi is constant on the element: one product per basis
            # function, with the b-field rows as the matrix; the two-term
            # products commute, so the bits are those of one per point
            data.conv[rows] = np.matmul(bfield[sl][:, None], grad[:, 0, :, :, None])[
                ..., 0].transpose(0, 2, 1)
        else:
            data.conv[rows] = np.matmul(grad, bfield[sl][:, :, :, None])[:, :, :, 0]
        for dens, flux, loc in loads:
            block = np.zeros((rows.size, nd)) if dens is None else _density_rows(scale, dens[sl], val)
            if flux is not None:
                # rows where the flux data vanishes add nothing; the others
                # add np.einsum("cq,cqd,cqid->ci") in its bits: per point the
                # two d-terms, then the points in order to 0, as sum does
                on = np.flatnonzero(flux[sl].any(axis=(1, 2)))
                sf = scale[on, :, None, None] * flux[sl][on][:, :, None]
                pair = sf[..., 0] * grad[on][..., 0] + sf[..., 1] * grad[on][..., 1]
                block[on] += sum(pair.transpose(1, 0, 2))
            loc[rows] = block
        if edge_data:
            # the flux data at the one-sided trace points
            verts = xy[:, :, rows]
            x = _edge_points(verts, la, dvec, t_pts)
            centroids = (verts[:, 0] + verts[:, 1] + verts[:, 2]) / 3.0
            x_in = (x + 1e-6 * (centroids[:, None, None] - x)).transpose(3, 1, 2, 0)
            for edge_rows, flux in edge_data:
                # np.einsum("xeqd,xed->xeq") in its bits, start value +0.0 last
                F = prob.eval_vector(flux, x_in)
                edge_rows[rows] = F[..., 0] * n[:, :, None, 0] + F[..., 1] * n[:, :, None, 1] + 0.0
    if (source < 0).any():
        raise RuntimeError("a shape class holds neither a kept nor a new element")
    return data


def _density_rows(scale, dens, val):
    """``np.einsum("cq,cq,qi->ci", scale, dens, val)`` in its bits, summed
    element-minor over the points in order from +0.0."""
    out = np.zeros((val.shape[1], scale.shape[0]))
    for vq, sq in zip(val, (scale * dens).T):
        out += vq[:, None] * sq
    return out.T


def _edge_points(xy, la, dvec, t_pts):
    """The edge rule's points on each local edge, from its vertex ``la``
    along ``dvec``, of the elements of coordinates ``xy`` (2, 3, n), as
    (2, 3, nq_e, n): coordinate-major, each operation runs over them."""
    pa = np.take_along_axis(xy, la.T[None], axis=1)
    return pa[:, :, None] + t_pts[:, None] * dvec.transpose(2, 1, 0)[:, :, None]


def _full_form(space, el):
    """Element matrices of the full form on ``space``: ``a_loc`` plus the
    convection and reaction terms, formed in blocks of ``_CHUNK`` elements."""
    b_loc = np.empty((len(el),) + el.a_loc.shape[1:])
    c = np.broadcast_to(el.c, el.conv.shape[:2])
    for start in range(0, b_loc.shape[0], _CHUNK):
        sl = slice(start, start + _CHUNK)
        b_loc[sl] = el.a_loc[el.shape[sl]] + np.matmul(el.val.T[None, :, :], quadrature_weights(
            space, sl)[:, :, None] * (el.conv[sl] + c[sl][:, :, None] * el.val))
    return b_loc


def _free_matrices(space, el, b_loc):
    """Free-dof CSR matrices of summed element matrices: the principal
    part ``el.a_loc`` symmetrised per shape class, and the full form."""
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

    A_sym = to_free((0.5 * (el.a_loc + el.a_loc.transpose(0, 2, 1)))[el.shape])
    A_sym.eliminate_zeros()
    return A_sym, to_free(b_loc)


def assemble(space, problem, previous=None):
    """Assemble B, A_sym and the load vectors F, G on the free dofs.

    With ``previous``, the finished level's :class:`ElementData`, only
    the rows of the new elements are computed, and ``previous`` is
    emptied as its kept rows are copied (the carry, see the module
    docstring).
    """
    data = _element_pass(space, problem, previous)
    A_sym, B = _free_matrices(space, data, _full_form(space, data))
    dofs = space.cell_dofs.ravel()
    F, G = (np.bincount(dofs, weights=loc.ravel(), minlength=space.n_dofs)[space.free_dofs]
            for loc in (data.f_loc, data.g_loc))
    return AssembledSystem(space=space, B=B, A_sym=A_sym, F_vec=F, G_vec=G, elements=data)


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


# the kernels of ``M @ x`` for a CSR matrix and for its CSC transpose view
_MATVEC = {"csr": _sparsetools.csr_matvec, "csc": _sparsetools.csc_matvec}


def _matvec(M, x):
    """M @ x for a CSR or CSC matrix ``M``, on scipy's own kernel without
    its dispatch; ``x`` must have the shape (M.shape[1],)."""
    if x.shape != (M.shape[1],):
        raise ValueError(f"vector of shape {x.shape} does not match a matrix of "
                         f"shape {M.shape}")
    y = np.zeros(M.shape[0])
    _MATVEC[M.format](*M.shape, M.indptr, M.indices, M.data, x, y)
    return y


def energy_norm(system, v):
    """Energy norm sqrt(v^T A_sym v)."""
    x = _coeffs(v)
    if x.shape != (system.n,):
        raise ValueError("coefficient vector does not match system size")
    return float(np.sqrt(max(_inner(x, _matvec(system.A_sym, x)), 0.0)))


def goal_value(system, u, z):
    """Corrected discrete goal G(u) + [F(z) - b(u, z)]."""
    uu = _coeffs(u)
    zz = _coeffs(z)
    if uu.shape != (system.n,) or zz.shape != (system.n,):
        raise ValueError("coefficient vector does not match system size")
    return float(_inner(system.G_vec, uu) + _inner(system.F_vec, zz)
                 - _inner(zz, _matvec(system.B, uu)))


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
