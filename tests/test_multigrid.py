import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import goafem as gf
from goafem.assemble import _inner
from goafem.multigrid import (COARSE_DOFS, DAMPING, POWER_ITERATIONS, _coarse_bottom,
                               _fold_bottom, _galerkin, _p1_prolongation, _p1_to_p_embedding)
from goafem.problem import ProblemData



def _setup(problem, n_levels, p=1, rng=None, domain="unit-square"):
    mesh = gf.uniform_refine(gf.initial_mesh(domain), 1)
    hier = gf.MeshHierarchy(mesh)
    rng = rng or np.random.default_rng(0)
    for _ in range(n_levels):
        marked = rng.choice(mesh.n_triangles,
                            size=max(1, mesh.n_triangles // 3), replace=False)
        mesh = gf.refine(mesh, marked)
        hier.append(mesh)
    space = gf.build_space(mesh, p)
    system = gf.assemble(space, problem)
    pc = gf.build_preconditioner(hier, space, system.A_sym)
    return hier, space, system, pc


def test_single_level_exact(bench1):
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 2)
    hier = gf.MeshHierarchy(mesh)
    for p in (1, 2, 3):
        space = gf.build_space(mesh, p)
        system = gf.assemble(space, bench1.problem)
        pc = gf.build_preconditioner(hier, space, system.A_sym)
        rhs = system.F_vec
        out = gf.psi_step(pc, rhs, np.zeros(space.dim))
        exact = system.solve_spd(rhs)
        assert np.allclose(out, exact, rtol=1e-10, atol=1e-13)


def test_one_dof_system(laplace):
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 2)
    hier = gf.MeshHierarchy(mesh)
    space = gf.build_space(mesh, 1)
    assert space.dim == 1
    system = gf.assemble(space, laplace)
    pc = gf.build_preconditioner(hier, space, system.A_sym)
    out = gf.psi_step(pc, system.F_vec, np.array([10.0]))
    assert out[0] == pytest.approx(system.F_vec[0] / system.A_sym[0, 0], rel=1e-12)


def test_fixed_point(bench1):
    hier, space, system, pc = _setup(bench1.problem, 4)
    xstar = system.solve_spd(system.F_vec)
    out = gf.psi_step(pc, system.F_vec, xstar)
    assert gf.energy_norm(system, out - xstar) <= 1e-12 * max(gf.energy_norm(system, xstar), 1.0)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_contraction_every_step(p, bench1):
    rng = np.random.default_rng(17)
    hier, space, system, pc = _setup(bench1.problem, 5, p=p, rng=rng)
    rhs = system.F_vec
    xstar = system.solve_spd(rhs)
    for trial in range(3):
        x = rng.standard_normal(space.dim)
        for step in range(4):
            e0 = gf.energy_norm(system, xstar - x)
            x = gf.psi_step(pc, rhs, x)
            e1 = gf.energy_norm(system, xstar - x)
            assert e1 < e0
            assert e1 <= 0.95 * e0 or e1 <= 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
def test_cycle_is_symmetric(p, bench1):
    # the cycle from a zero start is a symmetric operator, which the
    # energy-norm contraction of one step rests on
    hier, space, system, pc = _setup(bench1.problem, 5, p=p)
    assert pc.L == 5
    rng = np.random.default_rng(23)
    r1 = rng.standard_normal(space.dim)
    r2 = rng.standard_normal(space.dim)
    zero = np.zeros(space.dim)
    a = r1 @ pc.apply(r2, zero)
    b = r2 @ pc.apply(r1, zero)
    assert a == pytest.approx(b, rel=1e-12)


def _smooth_local(pc, lvl, r):
    """One damped local smoothing step on chain level ``lvl`` as a
    full-length vector; test_p1_levels_are_the_p1_discretisation pins
    lev.dinv to DAMPING / diag."""
    lev = pc.p1.levels[lvl - 1]
    e = np.zeros_like(r)
    if lev.loc.size:
        e[lev.loc] = lev.dinv * r[lev.loc]
    return e


def _reference_lower(pc, A1, top, bottom, coarse, r):
    """The V-cycle from the residual ``r`` entering chain level ``top``
    to the correction leaving it, recursing down to level ``bottom``,
    where ``coarse`` maps the residual to the correction; the transfers
    are transposed on every call, every local smoothing step is a
    full-length product, and the level matrices are the full ``A1``."""
    stored = {}
    for lvl in range(top, bottom, -1):
        e = _smooth_local(pc, lvl, r)
        stored[lvl] = (r, e)
        r = pc.p1.levels[lvl - 1].P.T @ (r - A1[lvl] @ e)
    e = coarse(r)
    for lvl in range(bottom + 1, top + 1):
        r_lvl, e_pre = stored[lvl]
        e = pc.p1.levels[lvl - 1].P @ e + e_pre
        e = e + _smooth_local(pc, lvl, r_lvl - A1[lvl] @ e)
    return e


def _reference_cycle(pc, A1, rhs, x):
    """The V-cycle recursing through the chain levels above the bottom
    operator, as ``_reference_lower`` does, and taking the bottom's
    product from ``pc.p1``."""
    A = pc.A_top
    r = rhs - A @ x
    dx = DAMPING * pc._smooth_top(r)
    x = x + dx
    r = r - A @ dx
    top_chain = pc.L - 1 if pc.p == 1 else pc.L
    bottom = pc.p1.bottom
    coarse = (lambda r: bottom @ r) if bottom is not None else pc.p1.lu0.solve
    e = _reference_lower(pc, A1, top_chain, pc.p1.folded, coarse, pc.transfer.T @ r)
    x = x + pc.transfer @ e
    r = rhs - A @ x
    return x + DAMPING * pc._smooth_top(r)


def _reference_bottom(pc, A1):
    """The identity pushed through ``_reference_lower`` from the bottom
    level j down to the solve with ``lu0``: the dense operator that the
    bottom of the cycle stands for."""
    lu0 = pc.p1.lu0
    coarse = lu0.solve if lu0 is not None else np.zeros_like
    return np.column_stack([_reference_lower(pc, A1, pc.p1.folded, 0, coarse, unit)
                            for unit in np.eye(pc.p1.bottom.shape[0])])


def _same_csr(stored, expected):
    return (stored.format == "csr" and stored.nnz == expected.nnz
            and np.array_equal(stored.toarray(), expected.toarray()))


def _transpose_view(view, matrix):
    """``view`` is the transpose of the CSR ``matrix`` on its own arrays."""
    return (matrix.format == "csr" and view.format == "csc"
            and view.shape == matrix.shape[::-1]
            and all(getattr(view, a).shape == getattr(matrix, a).shape
                    and getattr(view, a).ctypes.data == getattr(matrix, a).ctypes.data
                    for a in ("data", "indices", "indptr")))


@pytest.fixture(scope="module", params=[1, 2, 3])
def cycle_case(request, bench1):
    """A 13-level unit-square hierarchy, built incrementally as the driver
    builds it and fresh on its finest level, with the full level
    matrices of both: (hier, space, ((fresh, chain), (reused, tops)))."""
    p = request.param
    rng = np.random.default_rng(31)
    hier = gf.MeshHierarchy(gf.uniform_refine(gf.initial_mesh("unit-square"), 1))
    prev = None
    tops = []
    for level in range(13):
        if level:
            mesh = hier.finest
            hier.append(gf.refine(mesh, rng.choice(mesh.n_triangles,
                                                   size=max(1, mesh.n_triangles // 3),
                                                   replace=False)))
        space = gf.build_space(hier.finest, p)
        A_sym = gf.assemble(space, bench1.problem).A_sym
        reused = gf.build_preconditioner(hier, space, A_sym, reuse=prev)
        tops.append(A_sym if p == 1 else _galerkin(A_sym, _p1_to_p_embedding(space)))
        if level:
            assert len(reused.p1.levels) == len(prev.levels) + 1
            assert all(reused.p1.levels[i] is prev.levels[i] for i in range(len(prev.levels)))
            # the bottom grows by the newest recursion level or is shared
            if reused.p1.folded == prev.folded:
                assert reused.p1.bottom is prev.bottom
            else:
                assert reused.p1.folded == prev.folded + 1
        prev = reused.p1
    fresh = gf.build_preconditioner(hier, space, A_sym)
    assert fresh.L == reused.L == 12
    chain = [tops[-1]]
    for mesh in hier.levels[:0:-1]:
        chain.insert(0, _galerkin(chain[0], _p1_prolongation(mesh, space.free_index)))
    return hier, space, ((fresh, chain), (reused, tops))


def test_cycle_matches_reference_cycle(cycle_case):
    # the per-level records change no bit of a cycle, for a fresh and
    # for an incremental build; an incremental build shares the records
    # of the previous level's chain
    hier, space, builds = cycle_case
    rng = np.random.default_rng(37)
    for pc, A1 in builds:
        assert len(pc.p1.levels) == pc.L
        for lev, mesh, A in zip(pc.p1.levels, hier.levels[1:], A1[1:]):
            assert _same_csr(lev.P, _p1_prolongation(mesh, space.free_index))
            assert _transpose_view(lev.R, lev.P)
            assert _same_csr(lev.rows, A[lev.loc, :])
            assert _transpose_view(lev.cols, lev.rows)
            assert np.array_equal(lev.dinv, DAMPING / A.diagonal()[lev.loc])
        assert _transpose_view(pc.transfer_T, pc.transfer)
        # the cycle still recurses through two levels above the bottom
        assert len(pc.chain) >= 2 and pc.p1.folded >= 2
        for _ in range(3):
            rhs = rng.standard_normal(space.dim)
            x = rng.standard_normal(space.dim)
            assert np.array_equal(pc.apply(rhs, x), _reference_cycle(pc, A1, rhs, x))


def test_bottom_operator_is_the_lower_cycle(cycle_case):
    # the bottom is the identity pushed through the recursive lower
    # cycle, to rounding, and exactly symmetric; j is the highest
    # recursion level with at most COARSE_DOFS free dofs, and the cycle
    # recurses through the levels above it only
    _, _, builds = cycle_case
    for pc, A1 in builds:
        recursion = pc.p1.levels[:-1] if pc.p == 1 else pc.p1.levels
        sizes = [A1[0].shape[0]] + [lev.P.shape[0] for lev in recursion]
        j = pc.p1.folded
        assert sizes[j] <= COARSE_DOFS < sizes[j + 1]
        assert len(pc.chain) == len(recursion) - j
        assert all(a is b for a, b in zip(pc.chain, recursion[j:]))
        M = pc.p1.bottom.toarray()
        assert M.shape == (sizes[j], sizes[j]) and pc.p1.bottom.nnz == M.size
        assert np.array_equal(M, M.T)
        expected = _reference_bottom(pc, A1)
        assert np.abs(M - expected).max() <= 1e-13 * np.abs(expected).max()


def test_coarse_solve_stays_lu0_above_coarse_dofs(laplace):
    # where level 0 alone has more than COARSE_DOFS free dofs, nothing
    # is folded and the cycle recurses down to the solve with lu0
    rng = np.random.default_rng(4)
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 8)
    hier = gf.MeshHierarchy(mesh)
    A1 = [gf.assemble(gf.build_space(mesh, 1), laplace).A_sym]
    for _ in range(3):
        mesh = gf.refine(mesh, rng.choice(mesh.n_triangles, size=20, replace=False))
        hier.append(mesh)
        A1.append(gf.assemble(gf.build_space(mesh, 1), laplace).A_sym)
    assert A1[0].shape[0] > COARSE_DOFS
    space = gf.build_space(mesh, 1)
    pc = gf.build_preconditioner(hier, space, A1[-1])
    assert pc.p1.bottom is None and pc.p1.folded == 0 and len(pc.chain) == 2
    # the chain's own records against the full P1 matrices
    A1 = [A1[-1]]
    for level_mesh in hier.levels[:0:-1]:
        A1.insert(0, _galerkin(A1[0], _p1_prolongation(level_mesh, space.free_index)))
    rhs, x = rng.standard_normal((2, space.dim))
    assert np.array_equal(pc.apply(rhs, x), _reference_cycle(pc, A1, rhs, x))


def test_step_is_affine_linear(bench1):
    hier, space, system, pc = _setup(bench1.problem, 4)
    rng = np.random.default_rng(3)
    r1 = rng.standard_normal(space.dim)
    r2 = rng.standard_normal(space.dim)
    w1 = rng.standard_normal(space.dim)
    w2 = rng.standard_normal(space.dim)
    combined = gf.psi_step(pc, r1 + r2, w1 + w2)
    separate = (gf.psi_step(pc, r1, w1)
                + gf.psi_step(pc, r2, w2))
    scale = max(np.abs(combined).max(), 1.0)
    assert np.allclose(combined, separate, rtol=1e-10, atol=1e-10 * scale)


def test_discrete_function_roundtrip(bench1):
    hier, space, system, pc = _setup(bench1.problem, 3)
    w = gf.zero_function(space)
    out = gf.psi_step(pc, system.F_vec, w)
    assert isinstance(out, gf.DiscreteFunction)
    assert out.space is space


def test_two_level_p1_local_patches(laplace):
    # the level-1 smoothing set consists of the new vertices and the
    # endpoints of their bisected edges (free dofs only)
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 2)
    hier = gf.MeshHierarchy(mesh)
    fine = gf.refine(mesh, [0])
    hier.append(fine)
    space = gf.build_space(fine, 1)
    system = gf.assemble(space, laplace)
    pc = gf.build_preconditioner(hier, space, system.A_sym)
    verts = np.concatenate([np.arange(mesh.n_vertices, fine.n_vertices),
                            fine.new_vertex_edges.ravel()])
    expected = space.free_index[verts]
    expected = np.unique(expected[expected >= 0])
    assert len(pc.p1.levels) == 1
    assert np.array_equal(pc.p1.levels[0].loc, expected)


def test_p2_patches_cover_all_dofs(bench1):
    hier, space, system, pc = _setup(bench1.problem, 3, p=2)
    covered = np.zeros(space.n_free, dtype=bool)
    for idx, _ in pc.patches:
        covered[idx.ravel()] = True
    assert covered.all()
    # every patch holds all free dofs of the elements meeting its vertex
    mesh = space.mesh
    patch_sets = {tuple(sorted(idx_row)) for idx, _ in pc.patches for idx_row in idx}
    for v in (0, mesh.n_vertices // 2):
        elems = np.nonzero((mesh.triangles == v).any(axis=1))[0]
        dofs = space.free_index[space.cell_dofs[elems]]
        dofs = np.unique(dofs[dofs >= 0])
        if dofs.size:
            assert tuple(sorted(dofs)) in patch_sets


@pytest.mark.parametrize("p", [1, 2])
def test_incremental_reuse_matches_fresh(p, bench1):
    rng = np.random.default_rng(5)
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 1)
    hier = gf.MeshHierarchy(mesh)
    prev = None
    for _ in range(4):
        space = gf.build_space(hier.finest, p)
        system = gf.assemble(space, bench1.problem)
        fresh = gf.build_preconditioner(hier, space, system.A_sym)
        reused = gf.build_preconditioner(hier, space, system.A_sym, reuse=prev)
        x = rng.standard_normal(space.dim)
        r = rng.standard_normal(space.dim)
        assert np.allclose(gf.psi_step(fresh, r, x),
                           gf.psi_step(reused, r, x),
                           rtol=1e-13, atol=1e-14)
        prev = reused.p1
        mesh = gf.refine(hier.finest,
                         rng.choice(hier.finest.n_triangles, size=2, replace=False))
        hier.append(mesh)


@pytest.mark.parametrize("p", [1, 2])
def test_p1_levels_are_the_p1_discretisation(p):
    # the Galerkin restrictions of the assembled matrix equal the P1
    # matrices of the same operator, also for a non-identity diffusion
    problem = ProblemData(domain="unit-square", A=np.array([[2.0, 0.5], [0.5, 1.0]]), f=1.0)
    rng = np.random.default_rng(8)
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 2)
    hier = gf.MeshHierarchy(mesh)
    for _ in range(2):
        mesh = gf.refine(mesh, rng.choice(mesh.n_triangles, size=mesh.n_triangles // 3,
                                          replace=False))
        hier.append(mesh)
    space = gf.build_space(mesh, p)
    pc = gf.build_preconditioner(hier, space, gf.assemble(space, problem).A_sym)
    assert len(pc.p1.levels) == 2
    for lev, level_mesh in zip(pc.p1.levels, hier.levels[1:]):
        expected = gf.assemble(gf.FeSpace(level_mesh, 1), problem).A_sym
        scale = abs(expected).max()
        assert abs(lev.rows - expected[lev.loc, :]).max() <= 1e-12 * scale
        assert abs(lev.cols - expected[:, lev.loc]).max() <= 1e-12 * scale
        inv_expected = DAMPING / expected.diagonal()[lev.loc]
        assert np.abs(lev.dinv - inv_expected).max() <= 1e-12 * np.abs(inv_expected).max()
    # the coarse solve is the solve with the level-0 P1 matrix
    A0 = gf.assemble(gf.FeSpace(hier.levels[0], 1), problem).A_sym
    b = rng.standard_normal(A0.shape[0])
    direct = spla.spsolve(A0.tocsc(), b)
    assert np.abs(pc.p1.lu0.solve(b) - direct).max() <= 1e-12 * np.abs(direct).max()


def test_reuse_from_another_hierarchy_is_rejected(bench1):
    # two hierarchies of the same depth: only the P1 chain of the previous
    # level of the same hierarchy may be reused
    hier_a, space_a, system_a, pc_a = _setup(bench1.problem, 2, p=2,
                                             rng=np.random.default_rng(1))
    hier_b, _, _, _ = _setup(bench1.problem, 2, p=2, rng=np.random.default_rng(2))
    for hier in (hier_a, hier_b):
        hier.append(gf.refine(hier.finest, [0]))
    space_b = gf.build_space(hier_b.finest, 2)
    A_b = gf.assemble(space_b, bench1.problem).A_sym
    with pytest.raises(ValueError):
        gf.build_preconditioner(hier_b, space_b, A_b, reuse=pc_a.p1)
    # the same chain is accepted on its own hierarchy, and not with
    # another degree
    space_a = gf.build_space(hier_a.finest, 2)
    gf.build_preconditioner(hier_a, space_a, gf.assemble(space_a, bench1.problem).A_sym,
                            reuse=pc_a.p1)
    space_a3 = gf.build_space(hier_a.finest, 3)
    with pytest.raises(ValueError):
        gf.build_preconditioner(hier_a, space_a3,
                                gf.assemble(space_a3, bench1.problem).A_sym, reuse=pc_a.p1)


def _four_product_bound(pc):
    """The power iteration with every energy product formed afresh."""
    u = np.cos(np.arange(pc.n, dtype=float))
    lam = 1.0
    for _ in range(POWER_ITERATIONS):
        v = pc._smooth_top(pc.A_top @ u)
        nrm = np.sqrt(max(_inner(v, pc.A_top @ v), 1e-300))
        lam = max(_inner(u, pc.A_top @ v) / max(_inner(u, pc.A_top @ u), 1e-300), 1e-12)
        u = v / nrm
    return max(lam, 1.0)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["goal-singularity", "zshape-convection"])
def test_patch_blocks_invert_the_matrix_blocks(p, name):
    problem = gf.get_benchmark(name).problem
    result = gf.run(problem, gf.AdaptiveParams(p=p, max_levels=3))
    hier = result.hierarchy
    assert len(hier) == 4
    space = gf.build_space(hier.finest, p)
    A = gf.assemble(space, problem).A_sym
    pc = gf.build_preconditioner(hier, space, A)
    dense = A.toarray()
    covered = 0
    for idx, inv in pc.patches:
        blocks = dense[idx[:, :, None], idx[:, None, :]]
        assert np.abs(inv @ blocks - np.eye(idx.shape[1])).max() <= 1e-10
        covered += idx.shape[0]
    assert covered > 0
    # the power iteration reuses A u and A v within an iteration; the
    # scale it gives is bitwise that of the four-product form
    scale = pc.patch_scale
    pc.patch_scale = 1.0
    bound = pc._patch_spectral_bound()
    assert bound == _four_product_bound(pc)
    assert scale == 1.0 / (1.05 * bound)


def test_validation_errors(bench1, laplace):
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 2)
    hier = gf.MeshHierarchy(mesh)
    space = gf.build_space(mesh, 1)
    system = gf.assemble(space, laplace)
    other = gf.build_space(gf.uniform_refine(mesh), 1)
    with pytest.raises(ValueError):
        gf.build_preconditioner(hier, other, system.A_sym)
    pc = gf.build_preconditioner(hier, space, system.A_sym)
    with pytest.raises(ValueError):
        gf.psi_step(pc, system.F_vec, np.zeros(space.dim + 1))
    # a right-hand side of another shape is not broadcast, on a two-level
    # hierarchy with more than one dof
    hier.append(gf.uniform_refine(mesh))
    space = gf.build_space(hier.finest, 1)
    system = gf.assemble(space, bench1.problem)
    pc = gf.build_preconditioner(hier, space, system.A_sym)
    assert space.dim > 1
    for rhs in (np.ones(1), 1.0, np.ones(space.dim + 1), np.ones((space.dim, 1))):
        with pytest.raises(ValueError, match="right-hand side"):
            gf.psi_step(pc, rhs, np.zeros(space.dim))


def test_level_robust_contraction_on_benchmark_hierarchy(run_p1, level_contractions):
    """Contraction factors measured on the levels of a real adaptive run:
    all below one, drifting by less than 0.15 across levels 4..14."""
    assert len(run_p1.hierarchy) > 14
    values = list(level_contractions.values())
    assert max(values) < 1.0
    assert max(values) - min(values) <= 0.15


_PATCH_SCALE_SCRIPT = """
import goafem as gf
mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 11)
hier = gf.MeshHierarchy(mesh)
hier.append(gf.uniform_refine(mesh, 1))
space = gf.build_space(hier.finest, 2)
system = gf.assemble(space, gf.get_benchmark("goal-singularity").problem)
print(gf.build_preconditioner(hier, space, system.A_sym).patch_scale.hex())
"""


def test_patch_scale_independent_of_blas_threads():
    # 16,129 free dofs: above the size where OpenBLAS threads its dot
    # product, whose rounding then depends on the thread count
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(gf.__file__).resolve().parent.parent)
    scales = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", _PATCH_SCALE_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        scales.append(out.stdout.strip())
    assert scales[0] == scales[1]


def _random_hierarchy(seed, name, p):
    """One to four refine steps of random markings, from a single element
    up to all of them, with the preconditioner built incrementally on
    every level as the driver builds it."""
    rng = np.random.default_rng(seed)
    problem = gf.get_benchmark(name).problem
    hier = gf.MeshHierarchy(gf.uniform_refine(gf.initial_mesh(problem.domain), 1))
    chain = None
    for level in range(int(rng.integers(2, 6))):
        if level:
            mesh = hier.finest
            marked = rng.choice(mesh.n_triangles, size=int(rng.integers(1, mesh.n_triangles + 1)),
                                replace=False)
            hier.append(gf.refine(mesh, marked))
        space = gf.build_space(hier.finest, p)
        system = gf.assemble(space, problem)
        pc = gf.build_preconditioner(hier, space, system.A_sym, reuse=chain)
        chain = pc.p1
    return hier, space, system, pc, rng


_random_hierarchies = given(seed=st.integers(min_value=0, max_value=10 ** 6),
                            name=st.sampled_from(["goal-singularity", "zshape-convection"]),
                            p=st.integers(min_value=1, max_value=3))


@settings(max_examples=15, deadline=None)
@_random_hierarchies
def test_cycle_from_zero_is_symmetric_on_random_hierarchies(seed, name, p):
    _, space, _, pc, rng = _random_hierarchy(seed, name, p)
    r1, r2 = rng.standard_normal((2, space.dim))
    zero = np.zeros(space.dim)
    m1, m2 = pc.apply(r1, zero), pc.apply(r2, zero)
    # measured up to 2e-16 of the sum of the absolute products
    scale = max(np.abs(r1) @ np.abs(m2), np.abs(r2) @ np.abs(m1))
    assert abs(r1 @ m2 - r2 @ m1) <= 1e-12 * scale


@settings(max_examples=15, deadline=None)
@_random_hierarchies
def test_step_contracts_on_random_hierarchies(seed, name, p):
    _, space, system, pc, rng = _random_hierarchy(seed, name, p)
    rhs = rng.standard_normal(space.dim)
    xstar = system.solve_spd(rhs)
    x = rng.standard_normal(space.dim)
    e0 = gf.energy_norm(system, xstar - x)
    e1 = gf.energy_norm(system, xstar - gf.psi_step(pc, rhs, x))
    # the worst factor measured over 180 random starts was 0.63
    assert e1 <= 0.95 * e0


@settings(max_examples=15, deadline=None)
@_random_hierarchies
def test_incremental_build_matches_fresh_on_random_hierarchies(seed, name, p):
    # the newest level and the finest-space smoother are built from the
    # same matrix either way, bit for bit; the lower level matrices are
    # Galerkin products of other tops, so a step agrees to rounding only
    hier, space, system, pc, rng = _random_hierarchy(seed, name, p)
    fresh = gf.build_preconditioner(hier, space, system.A_sym)
    assert len(pc.p1.levels) == len(fresh.p1.levels) == pc.L
    new, ref = pc.p1.levels[-1], fresh.p1.levels[-1]
    for name_ in ("P", "rows"):
        assert _same_csr(getattr(new, name_), getattr(ref, name_))
    assert np.array_equal(new.loc, ref.loc) and np.array_equal(new.dinv, ref.dinv)
    if p >= 2:
        assert pc.patch_scale == fresh.patch_scale
        for (idx, inv), (idx_ref, inv_ref) in zip(pc.patches, fresh.patches, strict=True):
            assert np.array_equal(idx, idx_ref) and np.array_equal(inv, inv_ref)
    # the bottom is the chain's records folded in the same order: folded
    # afresh from this chain's own lu0 it is the same in every bit, and
    # the fresh build's, folded from its own records, agrees to rounding
    # (measured up to 5e-14 of the largest entry)
    recursion = pc.p1.levels[:-1] if p == 1 else pc.p1.levels
    n0 = pc.p1.levels[0].P.shape[1]
    refolded, folded = _fold_bottom(recursion, _coarse_bottom(pc.p1.lu0, n0), 0)
    assert folded == pc.p1.folded == fresh.p1.folded
    M, M_fresh = pc.p1.bottom.toarray(), fresh.p1.bottom.toarray()
    assert np.array_equal(refolded.toarray(), M)
    assert np.abs(M - M_fresh).max() <= 1e-12 * np.abs(M_fresh).max()
    rhs, x = rng.standard_normal((2, space.dim))
    step, ref_step = gf.psi_step(pc, rhs, x), gf.psi_step(fresh, rhs, x)
    # measured up to 6e-14 of the largest entry
    assert np.abs(step - ref_step).max() <= 1e-12 * np.abs(ref_step).max()


@settings(max_examples=15, deadline=None)
@_random_hierarchies
def test_smoothing_sets_are_the_sorted_distinct_free_ids(seed, name, p):
    # a level's set is np.unique of the free ids of its appended vertices
    # and of the endpoints of its bisected edges
    hier, space, _, pc, _ = _random_hierarchy(seed, name, p)
    assert len(pc.p1.levels) == len(hier) - 1
    for mesh, level in zip(hier.levels[1:], pc.p1.levels, strict=True):
        nv, split = mesh.n_vertices, mesh.new_vertex_edges
        loc = space.free_index[np.concatenate([np.arange(nv - split.shape[0], nv), split.ravel()])]
        expected = np.unique(loc[loc >= 0])
        assert level.loc.dtype == expected.dtype and np.array_equal(level.loc, expected)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       name=st.sampled_from(["goal-singularity", "zshape-convection"]),
       p=st.integers(min_value=2, max_value=3))
def test_patches_are_the_sorted_distinct_free_dofs_at_each_vertex(seed, name, p):
    # a vertex's patch is np.unique of the free dofs of the elements that
    # hold it; the patches of one size form one batch, in vertex order
    _, space, _, pc, _ = _random_hierarchy(seed, name, p)
    mesh = space.mesh
    fdofs = space.free_index[space.cell_dofs]
    patches = [np.unique(d[d >= 0]) for d in
               (fdofs[(mesh.triangles == v).any(axis=1)] for v in range(mesh.n_vertices))]
    sizes = sorted({patch.size for patch in patches} - {0})
    assert [idx.shape[1] for idx, _ in pc.patches] == sizes
    for (idx, _), size in zip(pc.patches, sizes):
        expected = np.array([patch for patch in patches if patch.size == size])
        assert np.array_equal(idx, expected)
