"""Contractive algebraic solver: local multigrid on the adaptive hierarchy.

One step is a symmetric V-cycle over all adaptive levels T_0 .. T_L:
lowest-order (hat function) damped Jacobi smoothing restricted to the
vertices created on each level (plus the endpoints of their bisected
edges), an exact solve on T_0, and on the finest space full smoothing --
pointwise for p = 1, damped additive vertex-patch blocks containing all
order-p dofs for p >= 2.  Every smoothing step is damped by the fixed
factor ``DAMPING``.  Pre- and post-smoothing mirror each other, so the
cycle from a zero start is a symmetric operator; the energy-norm
contraction of one step rests on that.  The part of the cycle below and
on the highest P1 level with at most ``COARSE_DOFS`` free dofs -- its
down sweep, the exact solve on T_0 and its up sweep -- is a fixed
symmetric linear map, which the cycle applies as one precomputed dense
matrix (the bottom operator, see ``P1Chain``): the same operator,
evaluated in another order, so it differs only by rounding.

The P1 level matrices are Galerkin restrictions of the assembled matrix
A_sym, never a second discretisation: the finest is A_sym itself for
p = 1 and E^T A_sym E for p >= 2, with E the nodal embedding of P1 into
the order-p space read from the basis nodes, and each coarser one is
P^T A1 P with the P1 prolongation P of one refine step, which
``space._p1_prolongation`` builds.  Refinement only appends vertices
and splits a Dirichlet edge into two Dirichlet edges, and vertex dofs
come first, so the P1 free numbering of level l is
``space.free_index[:n_vertices(l)]`` of the finest space: the
prolongations, the embedding E and the local smoothing sets all read it.

The p >= 2 patch blocks are gathered from A_sym, not assembled anew:
the patches of one size form a batch, whose (size x size) blocks are
read with CSR lookups ``A_sym[rows, cols]``, which search only the
stored row of each entry, and inverted, in chunks of at most
``_PATCH_ENTRIES`` block entries written into the batch's inverse
array.  The lookup's index arrays and the blocks thus live for one
chunk, and ``np.linalg.inv`` inverts each block on its own, so a
chunk's inverses are those of the whole batch in every bit.

Each P1 level 1..L is one record (``_Level``) built from the mesh of its
refine step: P, the local smoothing set, and the inverse diagonal and
rows of the level matrix on that set; P^T and the (symmetric) level
matrix's columns on the set are transpose views of P and the rows.  No
level matrix is kept: a fresh build holds one at a time on its way down
and factors the coarsest; an incremental build adds only the newest
record.  A local correction is zero off its set, so a cycle keeps it on
the set only: its products touch the local sets plus one transfer pair
per level.  Each step therefore costs O(#T_L): the level sizes grow
geometrically and the local smoothing sets are proportional to the
number of new vertices.  At the sizes of a run the sets are small, so a
level's share of a cycle is numpy's call overhead plus the kernels of
its four sparse products, which go through ``assemble._matvec`` and not
through scipy's dispatch, whatever the level's size.  The bottom of an
adaptive hierarchy is many tiny levels (1, 1, 5, 8, 11, ... free dofs),
so the cycle takes the levels up to ``COARSE_DOFS`` free dofs as one
product with the bottom operator, on the same ``_matvec`` kernel.

State lives either for the hierarchy or for one level.  The P1 chain
(``P1Chain``: the level records, the coarse factorisation, the bottom
operator, the mesh they end on and the degree) is all that the next
level's incremental build reads, and it is all that crosses levels.
The top -- A_sym, the transfer into the chain, the finest-space
smoother (the inverse diagonal at p = 1, the patch inverses at p >= 2)
and a single level's factorisation -- belongs to one level and is freed
with its preconditioner.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assemble import _inner, _matvec
from .space import DiscreteFunction, _free_csr, _p1_prolongation


def _galerkin(A, P):
    """Symmetrised Galerkin product P^T A P."""
    M = P.T @ (A @ P)
    return (0.5 * (M + M.T)).tocsr()


def _p1_to_p_embedding(p_space):
    """Nodal embedding of the free P1 dofs into the free dofs of the
    order-p space on the same mesh: a hat function takes, at a Lagrange
    node, that node's barycentric coordinate in any element holding it."""
    owner, local = p_space.dof_owners()
    vals = p_space.basis.nodes[local]                     # (n_dofs, 3)
    cols = p_space.mesh.triangles[owner]
    rows = np.repeat(np.arange(p_space.n_dofs), 3)
    nz = vals.ravel() != 0.0
    return _free_csr(vals.ravel()[nz], rows[nz], cols.ravel()[nz],
                     p_space.free_index, (p_space.n_dofs, p_space.mesh.n_vertices))


# block entries per chunk of a patch batch's gather and inversion
_PATCH_ENTRIES = 2 ** 16


def _vertex_patches(space, A):
    """Vertex-patch blocks with all order-p dofs, batched by size.  The
    patch of vertex z holds the free dofs of the elements at z, sorted:
    row z of the vertex-element incidence times the element-dof one."""
    mesh = space.mesh
    nt = mesh.n_triangles
    fdofs = space.free_index[space.cell_dofs]             # (nt, nloc)
    keep = fdofs >= 0
    dofs = fdofs[keep]
    elem_dofs = sp.csr_matrix((np.ones(dofs.size), dofs, np.append(0, np.cumsum(keep.sum(axis=1)))),
                              shape=(nt, space.n_free))
    elem_verts = sp.csr_matrix(
        (np.ones(3 * nt), mesh.triangles.ravel(), np.arange(0, 3 * nt + 1, 3)),
        shape=(nt, mesh.n_vertices))
    star = (elem_verts.T @ elem_dofs).tocsr()
    star.sort_indices()
    starts, sizes = star.indptr, np.diff(star.indptr)
    A = A.tocsr()
    cols = star.indices.astype(A.indices.dtype, copy=False)
    batched = []
    for size in np.unique(sizes):
        if size == 0:
            continue
        vs = np.nonzero(sizes == size)[0]
        idx = cols[(starts[vs][:, None] + np.arange(size)[None, :]).ravel()]
        idx = idx.reshape(vs.size, size)
        inv = np.empty((vs.size, size, size))
        step = max(1, _PATCH_ENTRIES // size ** 2)
        for start in range(0, vs.size, step):
            part = idx[start:start + step]
            # row-local lookup of the (size x size) block of every patch
            block = A[np.repeat(part, size, axis=1).ravel(), np.tile(part, (1, size)).ravel()]
            inv[start:start + step] = np.linalg.inv(np.asarray(block).reshape(-1, size, size))
        batched.append((idx, inv))
    return batched


class _Level:
    """One P1 level of the cycle, built from the mesh its refine step made
    and the free numbering of the finest ``space``: the prolongation
    ``P`` from the level below (on the space's own mesh, the space's), the
    local smoothing set ``loc`` (the appended vertices and the endpoints
    of the bisected edges, free dofs only), and the damped inverse
    diagonal ``dinv`` = DAMPING / diag and the ``rows`` of the level
    matrix A1 on it.  ``R`` and ``cols`` are the transpose views of ``P``
    and ``rows``; A1 is symmetric and not kept."""

    def __init__(self, space, mesh, A1):
        self.P = (space.p1_prolongation if mesh is space.mesh
                  else _p1_prolongation(mesh, space.free_index))
        self.R = self.P.T
        nv = mesh.n_vertices
        split = mesh.new_vertex_edges
        loc = space.free_index[np.concatenate([np.arange(nv - split.shape[0], nv), split.ravel()])]
        on = np.zeros(A1.shape[0], dtype=bool)
        on[loc[loc >= 0]] = True
        self.loc = loc = np.flatnonzero(on)
        diag = A1.diagonal()[loc]
        # DAMPING is a power of two, so this is DAMPING times the inverse
        # diagonal in every bit
        self.dinv = DAMPING * np.where(diag > 0.0, 1.0 / diag, 0.0)
        # the down sweep reads the set's columns, the up sweep its rows
        self.rows = A1[loc, :]
        self.cols = self.rows.T


def _dense_csr(M):
    """The square array ``M`` as a CSR matrix that stores every entry, so
    that ``_matvec`` applies it on scipy's single-threaded kernel."""
    n = M.shape[0]
    return sp.csr_matrix((M.ravel(), np.tile(np.arange(n), n), n * np.arange(n + 1)),
                         shape=(n, n))


def _fold(M, lev):
    """The cycle's operator from the residual entering level ``lev`` to
    the correction leaving it, given ``M``, that of the levels below:
    the identity pushed through the level's down and up sweep, with
    sparse @ dense products only, symmetrised like ``_galerkin``'s
    products.  With D the damped inverse diagonal on the local set and
    A1 the level matrix, it is E + D (I - A1 E) with
    E = P M P^T (I - A1 D) + D."""
    n, loc, dinv = lev.P.shape[0], lev.loc, lev.dinv
    # P M P^T, as M = M^T; E A1 D reads A1's columns on the local set,
    # which are the transposed rows there
    E = lev.P @ (lev.P @ M).T
    E[:, loc] -= (lev.rows @ E.T).T * dinv
    E[loc, loc] += dinv
    E[loc] += dinv[:, None] * (np.eye(n)[loc] - lev.rows @ E)
    return 0.5 * (E + E.T)


def _coarse_bottom(lu0, n0):
    """The bottom operator of level 0 alone, with ``n0`` free dofs: the
    inverse of its matrix, symmetrised, or None above ``COARSE_DOFS``."""
    if n0 > COARSE_DOFS:
        return None
    M = lu0.solve(np.eye(n0)) if n0 else np.zeros((0, 0))
    return _dense_csr(0.5 * (M + M.T))


def _fold_bottom(levels, bottom, folded):
    """Fold the recursion levels ``levels[folded:]`` with at most
    ``COARSE_DOFS`` free dofs onto the bottom operator ``bottom`` (None:
    the coarse solve stays ``lu0``), lowest first; the bottom and the
    number of levels it holds, the bottom unchanged when none is added."""
    # free dofs never fall up the chain, so these levels are a prefix
    new = [lev for lev in levels[folded:] if lev.P.shape[0] <= COARSE_DOFS]
    if bottom is None or not new:
        return bottom, folded
    M = bottom.toarray()
    for lev in new:
        M = _fold(M, lev)
    return _dense_csr(M), folded + len(new)


# damping of every smoothing step of the cycle
DAMPING = 0.5
# power-iteration steps of the patch-smoother spectral bound
POWER_ITERATIONS = 12
# free P1 dofs up to which the lowest levels leave the cycle's recursion
# for the dense bottom operator; of 100, 150, 200 and 300 it gave the
# least cycle and build time (within the spread) on singularity-p1-tight
COARSE_DOFS = 150


@dataclass(frozen=True)
class P1Chain:
    """The P1 chain of a hierarchy, the part of a preconditioner that
    lives for the whole run: the level records 1..L (``levels``), the
    level-0 factorisation ``lu0`` (None without free dofs), the bottom
    operator, and the ``mesh`` T_L and degree ``p`` it was built for.
    The next level's build appends one record to it.

    ``bottom`` is the V-cycle's map from the residual entering recursion
    level j = ``folded`` to the correction leaving it (down sweep, solve
    with ``lu0``, up sweep), one dense symmetric matrix stored in full as
    CSR.  j is the highest recursion level (levels 1..L-1 below the
    transfer at p = 1, 1..L at p >= 2) with at most ``COARSE_DOFS`` free
    dofs; the cycle recurses only above it.  ``bottom`` is None where
    level 0 alone has more, and the cycle solves with ``lu0``.  A build
    folds each new recursion level of at most ``COARSE_DOFS`` dofs onto
    the previous bottom and otherwise shares it; a fresh build folds the
    same way from ``lu0``."""

    levels: list
    lu0: object
    bottom: object
    folded: int
    mesh: object
    p: int


class MultilevelPreconditioner:
    """Assembled multilevel data for one adaptive level.

    Built by :func:`build_preconditioner`; apply one contraction step
    with :func:`psi_step`.  ``p1`` is the P1 chain, which the next
    level's build can extend (None without free dofs).  Everything else
    belongs to this level: ``A_top``, ``transfer``/``transfer_T``, the
    finest-space smoother (``top_invdiag`` or ``patches``) and, on a
    single level, ``lu_top``.
    """

    def __init__(self, hierarchy, space, A_sym, reuse=None):
        if hierarchy.finest is not space.mesh:
            raise ValueError("hierarchy finest mesh does not match the space")
        self.space = space
        self.A_top = A_sym
        self.n = space.n_free
        self.p = space.p
        self.L = L = len(hierarchy) - 1
        if reuse is not None and (L == 0 or reuse.mesh is not hierarchy.levels[L - 1]
                                  or reuse.p != self.p):
            raise ValueError("reuse is not the P1 chain of the previous level "
                             "of this hierarchy")
        self.p1 = None
        if self.n == 0:
            return

        if self.p == 1:
            top = A_sym
        else:
            embed = _p1_to_p_embedding(space)
            top = _galerkin(A_sym, embed)

        # lower levels never change once built: an incremental build
        # appends the newest level to the chain of the previous level of
        # the same run, a fresh build restricts the top level downwards
        # and holds one level matrix at a time
        if reuse is not None:
            levels = reuse.levels + [_Level(space, space.mesh, top)]
            lu0, bottom, folded = reuse.lu0, reuse.bottom, reuse.folded
        else:
            levels = []
            A1 = top
            for mesh in hierarchy.levels[:0:-1]:
                levels.append(_Level(space, mesh, A1))
                A1 = _galerkin(A1, levels[-1].P)
            levels = levels[::-1]
            lu0 = spla.splu(A1.tocsc()) if A1.shape[0] else None
            bottom, folded = _coarse_bottom(lu0, A1.shape[0]), 0
        # the recursion levels: at p = 1 the newest record is the
        # transfer into the chain (see below)
        recursion = levels[:-1] if self.p == 1 else levels
        bottom, folded = _fold_bottom(recursion, bottom, folded)
        self.p1 = P1Chain(levels, lu0, bottom, folded, space.mesh, self.p)

        # a single level is solved exactly; at p = 1 its matrix is the
        # level-0 P1 matrix
        if L == 0:
            self.lu_top = lu0 if self.p == 1 else spla.splu(self.A_top.tocsc())
            return

        # the cycle enters the P1 chain through one transfer: at p = 1
        # the finest space is P1 level L itself, so the chain below it
        # ends at L - 1 behind its prolongation; at p >= 2 the chain
        # ends at L behind the P1-to-order-p embedding.  The finest-
        # space smoother is pointwise Jacobi at p = 1, safe with damping
        # <= 1 (non-obtuse triangles make A an M-matrix, so the
        # Jacobi-preconditioned spectrum stays below 2), whereas the
        # overlapping patch blocks need a measured spectral rescaling
        self.chain = recursion[folded:]
        if self.p == 1:
            self.transfer, self.transfer_T = levels[-1].P, levels[-1].R
            diag = self.A_top.diagonal()
            self.top_invdiag = np.where(diag > 0.0, 1.0 / diag, 0.0)
        else:
            self.transfer, self.transfer_T = embed, embed.T
            self.patches = _vertex_patches(space, self.A_top)
            self.patch_scale = 1.0
            self.patch_scale = 1.0 / (1.05 * self._patch_spectral_bound())

    def _patch_spectral_bound(self):
        """Power-iteration estimate of lambda_max of the additive patch
        operator in the energy inner product."""
        n = self.n
        u = np.cos(np.arange(n, dtype=float))
        lam = 1.0
        for _ in range(POWER_ITERATIONS):
            Au = _matvec(self.A_top, u)
            v = self._smooth_top(Au)
            Av = _matvec(self.A_top, v)
            nrm = np.sqrt(max(_inner(v, Av), 1e-300))
            lam = max(_inner(u, Av) / max(_inner(u, Au), 1e-300), 1e-12)
            u = v / nrm
        return max(lam, 1.0)

    def _smooth_top(self, r):
        if self.p == 1:
            return self.top_invdiag * r
        out = np.zeros_like(r)
        for idx, inv in self.patches:
            e = np.matmul(inv, r[idx][:, :, None])[:, :, 0]
            out += np.bincount(idx.ravel(), weights=e.ravel(), minlength=r.shape[0])
        return self.patch_scale * out

    def apply(self, rhs, x):
        """One symmetric V-cycle for A_top x = rhs starting from x."""
        if self.n == 0:
            return x.copy()
        if self.L == 0:
            return self.lu_top.solve(rhs)

        A = self.A_top
        r = rhs - _matvec(A, x)
        dx = DAMPING * self._smooth_top(r)
        x = x + dx
        r = r - _matvec(A, dx)

        # down sweep through the P1 chain above the bottom operator; each
        # local correction is kept on its local set only
        r = _matvec(self.transfer_T, r)
        pre = []
        for lev in reversed(self.chain):
            r_loc = r[lev.loc]
            e_loc = lev.dinv * r_loc
            pre.append((r_loc, e_loc))
            r = _matvec(lev.R, r - _matvec(lev.cols, e_loc))
        bottom = self.p1.bottom
        e = _matvec(bottom, r) if bottom is not None else self.p1.lu0.solve(r)

        # up sweep, transposed smoothing order: one gather of the local
        # set, a store of the pre-smoothed values, which the residual
        # reads, and one of the post-smoothed ones
        for lev in self.chain:
            r_loc, e_loc = pre.pop()
            e = _matvec(lev.P, e)
            e_loc += e[lev.loc]
            e[lev.loc] = e_loc
            e[lev.loc] = e_loc + lev.dinv * (r_loc - _matvec(lev.rows, e))
        x = x + _matvec(self.transfer, e)

        r = rhs - _matvec(A, x)
        x = x + DAMPING * self._smooth_top(r)
        return x


def build_preconditioner(hierarchy, space, A_sym, reuse=None):
    """Assemble the multilevel preconditioner for the current level.

    The P1 level matrices are Galerkin restrictions of ``A_sym``, so the
    cycle acts on exactly the operator that was assembled.  Passing the
    previous level's P1 chain (its preconditioner's ``p1``) as ``reuse``
    makes the build incremental: the lower levels are immutable and
    shared, and only the newest one is added.  ``reuse`` must end on
    ``hierarchy.levels[-2]`` with the same degree, else ``ValueError``.
    Nothing else of the previous preconditioner is read, so the caller
    can free its top before this build.
    """
    return MultilevelPreconditioner(hierarchy, space, A_sym, reuse=reuse)


def psi_step(precond, rhs, w):
    """One contraction step of the algebraic solver: one V-cycle.

    Accepts and returns either plain coefficient arrays or
    :class:`DiscreteFunction`; the energy error decreases in every step
    and contracts strictly on nonzero error.  ``rhs`` and the iterate
    must both have the shape (precond.n,): neither is broadcast.
    """
    wrap = isinstance(w, DiscreteFunction)
    x = w.values if wrap else np.asarray(w, dtype=float)
    if x.shape != (precond.n,):
        raise ValueError("iterate does not match preconditioner size")
    if np.shape(rhs) != (precond.n,):
        raise ValueError("right-hand side does not match preconditioner size")
    out = precond.apply(rhs, x)
    return DiscreteFunction(precond.space, out) if wrap else out
