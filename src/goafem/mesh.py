"""Conforming 2D triangle meshes with newest-vertex bisection.

The local vertex convention is fixed throughout: for a triangle
``(v0, v1, v2)`` the refinement edge is ``(v0, v1)``, i.e. the edge
opposite the newest vertex ``v2``.  Bisection inserts the midpoint of
the refinement edge as the new local vertex 2 of both children, so the
convention is preserved under refinement.  The boundary is a label per
element side, which bisection hands on to the children's sides.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

DIRICHLET = 1
NEUMANN = 2

# local edge i is opposite local vertex i; edge 2 is the refinement edge
_LOCAL_EDGES = np.array([[1, 2], [2, 0], [0, 1]])

# closure sweeps after which a non-terminating closure is reported
MAX_CLOSURE_SWEEPS = 1000


class EdgeTables(NamedTuple):
    """A mesh's edges and their incidences: ``edges`` (ne, 2), the sorted
    vertex pairs in the order of their packed keys; ``tri_edges`` (nt, 3),
    the edge of each local edge i, opposite local vertex i; ``sides``
    (ne, 2), the element-major slots ``3 t + i`` (element t, local edge i)
    of each edge's sides in increasing order, -1 where a side is absent."""

    edges: np.ndarray
    tri_edges: np.ndarray
    sides: np.ndarray


@dataclass(frozen=True, eq=False)
class Triangulation:
    """Immutable conforming triangle mesh.

    Attributes
    ----------
    vertices : (nv, 2) float array of vertex coordinates.
    triangles : (nt, 3) int array; refinement edge is (t[0], t[1]).
    side_labels : (nt, 3) int8 array; the DIRICHLET/NEUMANN code of local
        edge i (opposite local vertex i) on the boundary, -1 on an
        interior side.
    parent : (nt,) int array, containing element id in the previous mesh
        (-1 for an initial mesh).
    new_vertex_edges : (k, 2) int array; endpoints of the bisected edge
        for each vertex appended by the refine step that produced this
        mesh (empty for an initial mesh).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    side_labels: np.ndarray
    parent: np.ndarray
    new_vertex_edges: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))

    def __post_init__(self):
        if self.side_labels.shape != self.triangles.shape:
            raise ValueError("side_labels must hold one label per local edge, shape (nt, 3)")
        # the check fills the cached areas, so each mesh computes them once
        if np.any(self.areas <= 0.0):
            raise ValueError("triangulation contains a non-positively oriented triangle")

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    def signed_areas(self):
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    @cached_property
    def areas(self):
        return self.signed_areas()

    @cached_property
    def kept(self):
        """Mask of the elements the refine step that made this mesh carried
        over unchanged: the only child of their parent; none on a mesh
        without parent links.  A kept element keeps its vertex triple and
        its order, so every row computed from its vertices is unchanged."""
        if self.parent.min(initial=0) < 0:
            return np.zeros(self.n_triangles, dtype=bool)
        return np.bincount(self.parent)[self.parent] == 1

    @cached_property
    def edge_tables(self):
        """The mesh's :class:`EdgeTables`; an edge id is the rank of its
        packed vertex pair among those of all edges."""
        nt, nv = self.n_triangles, self.n_vertices
        a, b = (self.triangles[:, _LOCAL_EDGES[:, k]].astype(np.int64, copy=False).ravel()
                for k in (0, 1))
        keys = np.minimum(a, b) * nv + np.maximum(a, b)
        # one stable sort of the keys groups the sides of each edge, by
        # slot: the sorted slots of an edge are its sides
        order = _stable_argsort(keys)
        keys = keys[order]
        first = np.concatenate([[True], keys[1:] != keys[:-1]])
        tri_edges = np.empty(3 * nt, dtype=np.int64)
        tri_edges[order] = np.cumsum(first) - 1
        starts = np.flatnonzero(first)
        sides = -np.ones((starts.size, 2), dtype=np.int64)
        sides[:, 0] = order[starts]
        two = np.diff(np.append(starts, 3 * nt)) > 1
        sides[two, 1] = order[starts[two] + 1]
        edges = np.stack([keys[starts] // nv, keys[starts] % nv], axis=1)
        return EdgeTables(edges, tri_edges.reshape(nt, 3), sides)

    @cached_property
    def edge_labels(self):
        """Per-edge boundary label, -1 on interior edges: the label of
        the edge's first side."""
        return self.side_labels.ravel()[self.edge_tables.sides[:, 0]]


def _stable_argsort(keys):
    """``np.argsort(keys, kind="stable")`` of non-negative int64 keys, 16
    bits at a time from the lowest: numpy sorts 16-bit integers stably by
    counting, and each pass keeps the order of the last among equal
    digits."""
    order = np.arange(keys.size)
    for shift in range(0, int(keys.max(initial=0)).bit_length(), 16):
        # the cast keeps the low 16 bits
        order = order[np.argsort((keys[order] >> shift).astype(np.uint16), kind="stable")]
    return order


def _element_ids(ids, n, name):
    """``ids`` as int64 ids of elements 0..n-1.  A boolean mask or float
    values would be read as other ids, so they are rejected."""
    ids = np.asarray(ids)
    if ids.dtype == bool:
        raise ValueError(f"{name} must hold element ids, not a boolean mask")
    # numpy reads an empty list as floats
    if ids.size and not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(f"{name} must hold integer element ids, not {ids.dtype} values")
    ids = ids.astype(np.int64, copy=False)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError(f"{name} contains invalid element ids")
    return ids


def initial_mesh(domain):
    """Build the coarse mesh of one of the two benchmark domains.

    ``domain`` is ``"unit-square"`` (two triangles whose refinement
    edges meet on the diagonal; all boundary Dirichlet) or ``"zshape"``
    (the square (-1,1)^2 with the triangle conv{(0,0),(-1,0),(-1,-1)}
    removed; Dirichlet on the two cut segments, Neumann elsewhere).
    Each element states the labels of its three sides.
    Refinement edges are the triangle hypotenuses, which makes the mesh
    admissible for newest-vertex bisection and keeps every descendant
    right isosceles.
    """
    name = str(domain).strip().lower().replace("_", "-")
    if name in ("unit-square", "unitsquare", "square"):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        triangles = np.array([[2, 0, 1], [0, 2, 3]])
        labels = [[DIRICHLET, DIRICHLET, -1]] * 2
    elif name in ("zshape", "z-shape"):
        vertices = np.array([
            [0.0, 0.0],    # reentrant corner
            [-1.0, -1.0],
            [0.0, -1.0],
            [1.0, -1.0],
            [1.0, 0.0],
            [1.0, 1.0],
            [0.0, 1.0],
            [-1.0, 1.0],
            [-1.0, 0.0],
        ])
        # each element's vertices, then the labels of the sides opposite
        # them; the cut segments (0, 1) and (8, 0) are Dirichlet
        D, N = DIRICHLET, NEUMANN
        triangles, labels = np.array([
            [[0, 1, 2], [N, -1, D]],
            [[3, 0, 2], [-1, N, -1]],
            [[0, 3, 4], [N, -1, -1]],
            [[5, 0, 4], [-1, N, -1]],
            [[0, 5, 6], [N, -1, -1]],
            [[7, 0, 6], [-1, N, -1]],
            [[0, 7, 8], [N, D, -1]],
        ]).transpose(1, 0, 2)
    else:
        raise ValueError(f"unknown domain {domain!r}")
    return Triangulation(
        vertices=vertices,
        triangles=triangles.astype(np.int64),
        side_labels=np.array(labels, dtype=np.int8),
        parent=-np.ones(triangles.shape[0], dtype=np.int64),
    )


def _bisect(triangles, labels, parent, mid):
    """One newest-vertex bisection step: a triangle (a, b, c) whose
    refinement-edge midpoint ``mid`` is set (>= 0) becomes (c, a, m) and
    (b, c, m) in its place, with its parent id.  The side labels follow
    the vertices: the halves (a, m) and (m, b) take the label of (a, b),
    (c, a) and (b, c) keep theirs, and (m, c) is interior.  Also returns
    the source row of each new triangle and 1 on the second children, 0
    elsewhere."""
    split = mid >= 0
    src = np.repeat(np.arange(triangles.shape[0]), 1 + split)
    first = np.cumsum(1 + split)[split] - 2
    second = np.zeros(src.size, dtype=np.int64)
    second[first + 1] = 1
    new, new_labels = triangles[src], labels[src]
    a, b, c = triangles[split].T
    m = mid[split]
    new[first] = np.stack([c, a, m], axis=1)
    new[first + 1] = np.stack([b, c, m], axis=1)
    # the labels of the sides (b, c), (c, a) and (a, b), and interior
    bc, ca, ab = labels[split].T
    inner = np.full_like(ab, -1)
    new_labels[first] = np.stack([ab, inner, ca], axis=1)
    new_labels[first + 1] = np.stack([inner, ab, bc], axis=1)
    return new, new_labels, parent[src], src, second


def refine(mesh, marked):
    """Newest-vertex bisection with conforming closure.

    Every element in ``marked`` is bisected at least once; the closure
    marks the refinement edge of any triangle that has a marked edge
    until a fixpoint is reached, which yields the coarsest conforming
    refinement.  Then one bisection rule (:func:`_bisect`) is applied
    twice: first to every triangle with a marked refinement edge, then to
    every child whose own refinement edge is marked.  The children of
    (a, b, c) have the refinement edges (c, a) and (b, c), the parent's
    local edges 1 and 0.  Untouched elements are carried over unchanged
    (same parent id and side labels); children take their parent's place
    in the element order, and their side labels are handed on by the
    same rule.
    """
    # a set of ids: repeats and order do not change the edges it marks
    marked = _element_ids(marked, mesh.n_triangles, "marked set")

    edges, tri_edges, _ = mesh.edge_tables
    ne = edges.shape[0]
    ref_edge = tri_edges[:, 2]

    edge_marked = np.zeros(ne, dtype=bool)
    edge_marked[ref_edge[marked]] = True
    for _ in range(MAX_CLOSURE_SWEEPS):
        # a triangle with a marked edge other than its refinement edge
        need = edge_marked[tri_edges[:, 0]] | edge_marked[tri_edges[:, 1]]
        need &= ~edge_marked[ref_edge]
        if not need.any():
            break
        edge_marked[ref_edge[need]] = True
    else:
        raise RuntimeError("conforming closure did not terminate; initial mesh not admissible")

    split = np.nonzero(edge_marked)[0]
    new_id = -np.ones(ne, dtype=np.int64)
    new_id[split] = mesh.n_vertices + np.arange(split.size)
    mid = 0.5 * (mesh.vertices[edges[split, 0]] + mesh.vertices[edges[split, 1]])
    vertices = np.vstack([mesh.vertices, mid])

    triangles, labels, parent, src, second = _bisect(
        mesh.triangles, mesh.side_labels, np.arange(mesh.n_triangles), new_id[ref_edge])
    # after the closure a kept triangle has no marked edge at all
    triangles, labels, parent, _, _ = _bisect(
        triangles, labels, parent, new_id[tri_edges[src, 1 - second]])

    return Triangulation(
        vertices=vertices,
        triangles=triangles,
        side_labels=labels,
        parent=parent,
        new_vertex_edges=edges[split].copy(),
    )


def check_refines(fine, n_coarse):
    """Raise ValueError unless ``fine`` is one refine step of a mesh of
    ``n_coarse`` elements: refine gives every element at least one child,
    so the parent ids of ``fine`` run from 0 to ``n_coarse - 1``."""
    if fine.parent.min(initial=0) < 0 or fine.parent.max(initial=-1) + 1 != n_coarse:
        raise ValueError(f"mesh is not one refine step of a mesh of {n_coarse} elements")


def uniform_refine(mesh, n=1):
    """Refine every element ``n`` times."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    for _ in range(n):
        mesh = refine(mesh, np.arange(mesh.n_triangles))
    return mesh


def is_conforming(mesh):
    """Exact combinatorial and geometric conformity check.

    True iff all triangles are positively oriented, every edge belongs
    to one or two triangles, the labelled sides are exactly the sides of
    the single-triangle edges, and no mesh vertex sits at the midpoint
    of an unsplit edge (hanging node).
    """
    if np.any(mesh.signed_areas() <= 0.0):
        return False
    edges, tri_edges, sides = mesh.edge_tables
    if np.bincount(tri_edges.ravel()).max(initial=0) > 2:
        return False
    boundary = np.zeros(tri_edges.size, dtype=bool)
    boundary[sides[sides[:, 1] < 0, 0]] = True
    if not np.array_equal(boundary, mesh.side_labels.ravel() >= 0):
        return False
    # hanging vertices sit exactly at an edge midpoint (bisection arithmetic
    # reproduces the coordinates bitwise); each point is packed into one
    # complex number, so one sorted membership test compares them exactly
    mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    packed = [np.ascontiguousarray(xy, dtype=float).view(np.complex128).ravel()
              for xy in (mids, mesh.vertices)]
    return not np.isin(*packed).any()


def min_angle(mesh):
    """Smallest interior angle over all triangles, in radians."""
    p = mesh.vertices[mesh.triangles]
    angles = []
    for i, (a, b) in enumerate(_LOCAL_EDGES):
        u = p[:, a] - p[:, i]
        v = p[:, b] - p[:, i]
        cosang = (u * v).sum(axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        angles.append(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return float(np.min(angles))


class MeshHierarchy:
    """Nested sequence of triangulations, each one refine step of the last.

    Holds the meshes only: each carries what the local multigrid reads of
    the step that made it, the appended vertices and the endpoints of
    their bisected edges (``Triangulation.new_vertex_edges``).  A mesh
    that is no longer the finest drops its cached properties.
    """

    def __init__(self, mesh):
        self.levels = [mesh]

    def append(self, mesh):
        # the precondition of the P1 prolongation of the new level
        if mesh.n_vertices - mesh.new_vertex_edges.shape[0] != self.finest.n_vertices:
            raise ValueError("appended mesh is not one refine step of the finest level")
        # a coarser level's cached properties are not read again: drop
        # them, which a later access would compute anew, bit for bit
        for name, attr in vars(Triangulation).items():
            if isinstance(attr, cached_property):
                vars(self.finest).pop(name, None)
        self.levels.append(mesh)

    def __len__(self):
        return len(self.levels)

    @property
    def finest(self):
        return self.levels[-1]
