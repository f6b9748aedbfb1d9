"""Lagrange finite element spaces on triangulations.

Global dof layout: vertex dofs first, then (p-1) dofs per edge ordered
along the edge from the smaller vertex id, then one interior dof per
triangle for p = 3.  A node's position is its ``basis.nodes`` row in an
element holding it; no physical node coordinates are kept.  Functions
vanish on the Dirichlet boundary; the coefficient vector of a
:class:`DiscreteFunction` holds free dofs only.

``FeSpace.free_index`` is the one free-dof numbering, -1 on Dirichlet
dofs.  Vertex dofs come first and refinement only appends vertices, so
on a coarser mesh l of a hierarchy the P1 free numbering is
``free_index[:n_vertices(l)]``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .basis import lagrange_basis
from .mesh import _LOCAL_EDGES, DIRICHLET, check_refines


class FeSpace:
    """Lagrange space of degree p with homogeneous Dirichlet constraints."""

    def __init__(self, mesh, p):
        self.mesh = mesh
        self.p = p
        self.basis = lagrange_basis(p)      # raises ValueError unless p is 1, 2 or 3

        nv = mesh.n_vertices
        nt = mesh.n_triangles
        tables = mesh.edge_tables
        edges, tri_edges = tables.edges, tables.tri_edges
        ne = edges.shape[0]
        per_edge = p - 1

        self.n_dofs = nv + per_edge * ne + (1 if p == 3 else 0) * nt

        cell_dofs = np.empty((nt, self.basis.n), dtype=np.int64)
        cell_dofs[:, :3] = mesh.triangles
        # local edge node k is the k-th from the first vertex of the local
        # pair; global ones count from the smaller vertex id
        for k in range(per_edge):
            fwd = mesh.triangles[:, _LOCAL_EDGES[:, 0]] < mesh.triangles[:, _LOCAL_EDGES[:, 1]]
            cell_dofs[:, 3 + k:3 + 3 * per_edge:per_edge] = (
                nv + per_edge * tri_edges + np.where(fwd, k, per_edge - 1 - k))
        if p == 3:
            cell_dofs[:, 9] = nv + 2 * ne + np.arange(nt)
        self.cell_dofs = cell_dofs

        dirichlet = np.nonzero(mesh.edge_labels == DIRICHLET)[0]
        free = np.ones(self.n_dofs, dtype=bool)
        free[edges[dirichlet].ravel()] = False
        for k in range(per_edge):
            free[nv + per_edge * dirichlet + k] = False
        self.free_index = np.where(free, np.cumsum(free) - 1, -1)
        self.free_dofs = np.nonzero(free)[0]
        self.n_free = int(free.sum())

    @property
    def dim(self):
        return self.n_free

    def full(self, free_coeffs):
        """Expand free-dof coefficients with zeros on Dirichlet dofs."""
        out = np.zeros(self.n_dofs)
        out[self.free_dofs] = free_coeffs
        return out

    @cached_property
    def p1_prolongation(self):
        """The free P1 prolongation of the refine step that made the mesh,
        built once: the newest P1 level and, at p = 1, ``prolong`` read it."""
        return _p1_prolongation(self.mesh, self.free_index)

    def dof_owners(self):
        """One element holding each dof, and the dof's local index in it."""
        nloc = self.cell_dofs.shape[1]
        slot = np.empty(self.n_dofs, dtype=np.int64)
        slot[self.cell_dofs.ravel()] = np.arange(self.cell_dofs.size)
        return np.divmod(slot, nloc)


def build_space(mesh, p):
    """Spec entry point for space construction."""
    return FeSpace(mesh, p)


@dataclass
class DiscreteFunction:
    """Finite element function given by its free-dof coefficients."""

    space: FeSpace
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.space.n_free,):
            raise ValueError("coefficient vector does not match space dimension")

    def full(self):
        return self.space.full(self.values)


def zero_function(space):
    return DiscreteFunction(space, np.zeros(space.n_free))


def grad_lambda(mesh, rows=slice(None)):
    """Physical gradients of the barycentric coordinates of the elements
    ``rows`` (default all), (n, 3, 2)."""
    p = mesh.vertices[mesh.triangles[rows]]
    out = np.empty(p.shape[:1] + (3, 2))
    two_area = 2.0 * mesh.areas[rows]
    for i in range(3):
        d = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        out[:, i, 0] = -d[:, 1] / two_area
        out[:, i, 1] = d[:, 0] / two_area
    return out


def _row_sums(x):
    """``x.sum(axis=1)`` of a 2-D float array, bit for bit, added column
    by column: numpy's loop over short rows costs more than the sums.

    numpy sums a row pairwise and adds the result to its start value
    +0.0 (so a row of -0.0 sums to +0.0).  Fewer than 8 terms are added
    in order.  Up to 128 terms go into eight interleaved partial sums,
    r_j = x_j + x_(j+8) + ... over the largest multiple of 8 terms, which
    are combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
    the remaining terms are then added in order.  A longer row is summed
    as two halves, split at a multiple of 8.  Below 16 terms the partial
    sums are the first eight columns themselves, not a copy.  Columns of
    a transposed (element-minor) array are contiguous rows, the fastest
    layout."""
    n = x.shape[1]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _row_sums(x[:, :half]) + _row_sums(x[:, half:])
    if n < 8:
        out, stop = np.zeros(x.shape[0]), 0
    else:
        stop = n - n % 8
        r = x[:, :8]
        if stop > 8:
            r = r.copy(order="K")
            for start in range(8, stop, 8):
                r += x[:, start:start + 8]
        out = ((r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])) + ((r[:, 4] + r[:, 5])
                                                             + (r[:, 6] + r[:, 7]))
    for j in range(stop, n):
        out += x[:, j]
    out += 0.0
    return out


def _free_csr(vals, rows, cols, free_index, shape):
    """CSR of the COO entries on free dofs, rows and columns numbered by
    the ``free_index`` prefixes of the lengths in ``shape``."""
    rows, cols = free_index[rows], free_index[cols]
    keep = (rows >= 0) & (cols >= 0)
    n_rows, n_cols = (np.count_nonzero(free_index[:k] >= 0) for k in shape)
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n_rows, n_cols))


def _p1_prolongation(fine_mesh, free_index):
    """P1 free-dof prolongation through the refine step that made
    ``fine_mesh``: weight 1 at old vertices, 1/2 per end of a bisected edge."""
    nv_f = fine_mesh.n_vertices
    split = fine_mesh.new_vertex_edges
    nv_c = nv_f - split.shape[0]
    rows = np.concatenate([np.arange(nv_c), np.repeat(np.arange(nv_c, nv_f), 2)])
    cols = np.concatenate([np.arange(nv_c), split.ravel()])
    vals = np.concatenate([np.ones(nv_c), np.full(split.size, 0.5)])
    return _free_csr(vals, rows, cols, free_index, (nv_f, nv_c))


def _parent_vertex_counts(fine_mesh, coarse_triangles):
    """(3, 3, nt) int8, element-minor: entry (j, i, t) counts the ends of
    the bisected edge of vertex j of fine element t, an old vertex v being
    the edge (v, v), that are vertex i of its parent.  ``counts[j, :, t] /
    2`` are that vertex's barycentric coordinates in the parent."""
    nv_c = fine_mesh.n_vertices - fine_mesh.new_vertex_edges.shape[0]
    ends = np.concatenate([np.tile(np.arange(nv_c), (2, 1)), fine_mesh.new_vertex_edges.T], axis=1)
    e0, e1 = (np.take(e, fine_mesh.triangles.T)[:, None] for e in ends)
    parent = np.take(coarse_triangles.T, fine_mesh.parent, axis=1)
    counts = (e0 == parent).view(np.int8) + (e1 == parent).view(np.int8)
    if np.any(counts[:, 0] + counts[:, 1] + counts[:, 2] != 2):
        raise ValueError("a fine vertex is neither a vertex nor an edge midpoint of its parent")
    return counts


def prolong(u, fine_space):
    """Embed ``u`` into the same-degree space on a one-step refinement.

    Exact because the spaces are nested.  At p = 1 this applies the
    refine step's P1 matrix (``FeSpace.p1_prolongation``).  At p >= 2 the
    parent's polynomial is evaluated at each fine node's barycentric
    coordinates in the parent, integers over 2p read from ``basis.nodes``
    and :func:`_parent_vertex_counts`, once per distinct point.
    """
    coarse = u.space
    fine = fine_space
    if fine.p != coarse.p:
        raise ValueError("prolongation requires matching polynomial degrees")
    check_refines(fine.mesh, coarse.mesh.n_triangles)
    if fine.mesh.n_vertices - fine.mesh.new_vertex_edges.shape[0] != coarse.mesh.n_vertices:
        raise ValueError("fine mesh is not one refine step of the coarse mesh")
    if fine.p == 1:
        return DiscreteFunction(fine, fine.p1_prolongation @ u.values)

    counts = _parent_vertex_counts(fine.mesh, coarse.mesh.triangles)
    owner, local = fine.dof_owners()
    # a node at (a, b, m - a - b) / m in its parent, m = 2p, is point
    # (m + 1) a + b of the grid the coarse basis is evaluated on
    m = 2 * fine.p
    nodes = np.rint(fine.p * fine.basis.nodes).astype(np.int64)
    point = (nodes @ ((m + 1) * counts[:, 0] + counts[:, 1]))[local, owner]
    points = np.array([(a, b, m - a - b) for a in range(m + 1) for b in range(m + 1)]) / m
    vals = coarse.basis.eval(points)[point]              # (n_dofs, nloc)
    coeffs = coarse.full(u.values)[coarse.cell_dofs[fine.mesh.parent[owner]]]
    return DiscreteFunction(fine, _row_sums(vals * coeffs)[fine.free_dofs])
