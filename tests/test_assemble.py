import importlib
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import goafem as gf
from conftest import energy_error_to_exact
from goafem.assemble import AssembledSystem
from goafem.problem import ProblemData


def test_laplace_b_equals_asym(square_mesh, laplace):
    space = gf.build_space(gf.uniform_refine(square_mesh, 3), 1)
    system = gf.assemble(space, laplace)
    assert abs(system.B - system.A_sym).max() == 0.0
    assert abs(system.A_sym - system.A_sym.T).max() <= 1e-12 * abs(system.A_sym).max()


def test_empty_system(square_mesh, laplace):
    space = gf.build_space(square_mesh, 1)
    system = gf.assemble(space, laplace)
    assert system.n == 0
    u = gf.solve_direct(system, "primal")
    assert u.values.shape == (0,)
    assert gf.goal_value(system, u, u) == 0.0
    assert gf.energy_norm(system, u) == 0.0


def test_coarse_galerkin_value(square_mesh, laplace):
    # single interior hat on the 8-triangle mesh: stiffness 4, load 1/3
    mesh = gf.uniform_refine(square_mesh, 2)
    space = gf.build_space(mesh, 1)
    system = gf.assemble(space, laplace)
    u = gf.solve_direct(system, "primal")
    assert u.values[0] == pytest.approx(1.0 / 12.0, rel=1e-12)


def test_hat_energy(square_mesh, laplace):
    mesh = gf.uniform_refine(square_mesh, 2)
    space = gf.build_space(mesh, 1)
    system = gf.assemble(space, laplace)
    phi = gf.DiscreteFunction(space, np.ones(1))
    assert gf.energy_norm(system, phi) ** 2 == pytest.approx(4.0, rel=1e-12)


def test_benchmark1_nonsymmetric(bench1):
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 3)
    space = gf.build_space(mesh, 1)
    system = gf.assemble(space, bench1.problem)
    assert abs(system.B - system.B.T).max() > 1e-3


def test_energy_norm_zero_and_scaling(bench1):
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 3)
    space = gf.build_space(mesh, 1)
    system = gf.assemble(space, bench1.problem)
    assert gf.energy_norm(system, gf.zero_function(space)) == 0.0
    rng = np.random.default_rng(5)
    v = rng.standard_normal(space.dim)
    assert gf.energy_norm(system, 2.0 * v) == pytest.approx(
        2.0 * gf.energy_norm(system, v), rel=1e-12)


def test_energy_norm_dimension_mismatch(square_mesh, laplace):
    mesh = gf.uniform_refine(square_mesh, 2)
    system = gf.assemble(gf.build_space(mesh, 1), laplace)
    with pytest.raises(ValueError):
        gf.energy_norm(system, np.zeros(17))


def _shifted(v, offset):
    """A copy of ``v`` that starts ``offset`` floats into a larger buffer."""
    buf = np.zeros(v.shape[0] + offset)
    buf[offset:] = v
    return buf[offset:]


def test_inner_products_past_blas_threading_threshold(bench1):
    # above about 10,000 entries OpenBLAS splits a ddot across threads;
    # the inner products must stay exact and independent of alignment
    space = gf.build_space(gf.uniform_refine(gf.initial_mesh("unit-square"), 14), 1)
    system = gf.assemble(space, bench1.problem)
    assert system.n > 10_000
    u = gf.solve_direct(system, "primal").values
    z = gf.solve_direct(system, "dual").values

    energy = gf.energy_norm(system, u)
    ref = math.sqrt(math.fsum(u * (system.A_sym @ u)))
    assert energy == pytest.approx(ref, rel=1e-14, abs=0.0)
    goal = gf.goal_value(system, u, z)
    ref = (math.fsum(system.G_vec * u) + math.fsum(system.F_vec * z)
           - math.fsum(z * (system.B @ u)))
    assert goal == pytest.approx(ref, rel=1e-14, abs=0.0)

    for offset in (1, 3):
        assert gf.energy_norm(system, _shifted(u, offset)) == energy
        assert gf.goal_value(system, _shifted(u, offset), _shifted(z, offset + 1)) == goal


def test_goal_identity_for_exact_primal(bench1):
    # G_H(u_H*, z) = G(u_H*) for any z
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 4)
    space = gf.build_space(mesh, 1)
    system = gf.assemble(space, bench1.problem)
    u = gf.solve_direct(system, "primal")
    exact = float(system.G_vec @ u.values)
    rng = np.random.default_rng(11)
    for _ in range(5):
        z = gf.DiscreteFunction(space, rng.standard_normal(space.dim))
        assert gf.goal_value(system, u, z) == pytest.approx(exact, rel=1e-10, abs=1e-14)


def test_goal_zero(bench1):
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 2)
    space = gf.build_space(mesh, 1)
    system = gf.assemble(space, bench1.problem)
    z = gf.zero_function(space)
    assert gf.goal_value(system, z, z) == 0.0


def test_galerkin_orthogonality(bench1):
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 4)
    space = gf.build_space(mesh, 1)
    system = gf.assemble(space, bench1.problem)
    u = gf.solve_direct(system, "primal")
    res = system.B @ u.values - system.F_vec
    assert np.abs(res).max() <= 1e-10 * np.linalg.norm(system.F_vec)
    z = gf.solve_direct(system, "dual")
    res_d = system.B.T @ z.values - system.G_vec
    assert np.abs(res_d).max() <= 1e-10 * np.linalg.norm(system.G_vec)


def _dense_system(space, B, F, G):
    B = sp.csr_matrix(B)
    return AssembledSystem(space=space, B=B, A_sym=B, F_vec=F, G_vec=G, elements=None)


def test_solve_direct_accepts_ill_conditioned_systems(square_mesh):
    # condition number 1e12 and loads along the smallest singular
    # directions: a backward-stable solve leaves a residual of about
    # eps |B| |x|, far above 1e-12 |f|, so a residual relative to the load
    # rejects it; the normwise backward error stays below 1e-12
    space = gf.build_space(gf.uniform_refine(square_mesh, 6), 1)
    n = space.n_free
    rng = np.random.default_rng(0)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    B = (U * np.logspace(0, -12, n)) @ V.T
    system = _dense_system(space, B, U[:, -1], V[:, -1])
    for which, mat, rhs in (("primal", B, U[:, -1]), ("dual", B.T, V[:, -1])):
        x = gf.solve_direct(system, which).values
        assert np.abs(x).max() > 1e10
        res = mat @ x - rhs
        assert np.linalg.norm(res) > 1e-12 * np.linalg.norm(rhs)
        assert np.abs(res).max() <= 1e-12 * (np.abs(mat).sum(axis=1).max() * np.abs(x).max()
                                             + np.abs(rhs).max())


def test_solve_direct_rejects_non_finite_solutions(square_mesh):
    space = gf.build_space(gf.uniform_refine(square_mesh, 4), 1)
    n = space.n_free
    system = _dense_system(space, 1e-300 * np.eye(n), np.full(n, 1e10), np.full(n, 1e10))
    for which in ("primal", "dual"):
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            gf.solve_direct(system, which)


def test_solve_direct_error_decreases(bench1):
    # known exact solution of benchmark 1
    errors = []
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 2)
    for _ in range(3):
        space = gf.build_space(mesh, 1)
        system = gf.assemble(space, bench1.problem)
        u = gf.solve_direct(system, "primal")
        errors.append(energy_error_to_exact(space, bench1.problem,
                                            bench1.exact_grad_u, u))
        mesh = gf.uniform_refine(mesh)
    assert errors[1] < errors[0]
    assert errors[2] < errors[1]


def test_cea_type_monotonicity(bench1):
    # energy error monotone under refinement up to 5% slack
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 2)
    prev = None
    for _ in range(4):
        space = gf.build_space(mesh, 1)
        system = gf.assemble(space, bench1.problem)
        u = gf.solve_direct(system, "primal")
        err = energy_error_to_exact(space, bench1.problem, bench1.exact_grad_u, u)
        if prev is not None:
            assert err <= 1.05 * prev
        prev = err
        mesh = gf.uniform_refine(mesh)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_goal_value_definition(seed):
    # goal_value == G(u) + F(z) - b(u, z) recomputed from the matrices
    spec = gf.get_benchmark("goal-singularity")
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 2)
    space = gf.build_space(mesh, 1)
    system = gf.assemble(space, spec.problem)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(space.dim)
    z = rng.standard_normal(space.dim)
    expected = (system.G_vec @ u + system.F_vec @ z - z @ (system.B @ u))
    assert gf.goal_value(system, u, z) == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_spd_spot_check(bench1):
    pts = np.random.default_rng(0).random((30, 2))
    assert bench1.problem.spd_spot_check(pts)
    bad = ProblemData(A=np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not bad.spd_spot_check(pts)


def test_blocked_pass_matches_single_block(monkeypatch, bench2):
    space = gf.build_space(gf.uniform_refine(gf.initial_mesh("zshape"), 2), 2)
    whole = gf.assemble(space, bench2.problem)
    monkeypatch.setattr(importlib.import_module("goafem.assemble"), "_CHUNK", 5)
    blocked = gf.assemble(space, bench2.problem)
    for name in ("B", "A_sym"):
        assert abs(getattr(whole, name) - getattr(blocked, name)).max() == 0.0
    assert np.array_equal(whole.F_vec, blocked.F_vec)
    assert np.array_equal(whole.G_vec, blocked.G_vec)
    assert np.array_equal(whole.elements.conv, blocked.elements.conv)


def _random_mesh(domain, rng, steps=2):
    mesh = gf.uniform_refine(gf.initial_mesh(domain), 1)
    for _ in range(steps):
        k = int(rng.integers(1, mesh.n_triangles + 1))
        mesh = gf.refine(mesh, rng.choice(mesh.n_triangles, size=k, replace=False))
    return mesh


def _as_callable(value):
    """A callable that returns the constant ``value`` at every point."""
    shape = np.shape(value)
    return lambda x: np.broadcast_to(np.asarray(value, dtype=float), x.shape[:-1] + shape)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       domain=st.sampled_from(["unit-square", "zshape"]), p=st.integers(min_value=1, max_value=3),
       values=st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=9, max_size=9))
def test_constant_data_matches_callable_constants(seed, domain, p, values):
    # constant zero-order data is stored as one (1, 1) row that broadcasts;
    # the same constants given as callables give full rows.  Both give the
    # same bits, in blocks small enough that every row is sliced
    from unittest import mock

    from goafem.estimator import EstimatorGeometry, EstimatorWorkspace

    c, div_b, f, g, div_f_vec, div_g_vec, b1, b2, g1 = values
    data = dict(b_conv=(b1, b2), c=c, div_b=div_b, f=f, g=g,
                div_f_vec=div_f_vec, div_g_vec=div_g_vec)
    shared = dict(domain=domain, A=np.array([[2.0, 0.5], [0.5, 1.0]]), g_vec=(g1, -g1))
    const = ProblemData(**shared, **data)
    field = ProblemData(**shared, **{k: _as_callable(v) for k, v in data.items()})
    rng = np.random.default_rng(seed)
    space = gf.build_space(_random_mesh(domain, rng), p)
    v = gf.DiscreteFunction(space, rng.standard_normal(space.dim))

    def bits(a):
        return a.dtype, a.shape, a.tobytes()

    with mock.patch.object(importlib.import_module("goafem.assemble"), "_CHUNK", 16):
        systems = [gf.assemble(space, problem) for problem in (const, field)]
    zero_order = ("c", "c_dual", "f_res", "g_res")
    assert all(getattr(systems[0].elements, n).shape == (1, 1) for n in zero_order)
    assert all(getattr(systems[1].elements, n).shape[0] == space.mesh.n_triangles
               for n in zero_order)
    for name in ("A_sym", "B"):
        a, b = (getattr(s, name) for s in systems)
        assert all(bits(getattr(a, k)) == bits(getattr(b, k)) for k in ("indptr", "indices", "data"))
    for name in ("F_vec", "G_vec"):
        assert bits(getattr(systems[0], name)) == bits(getattr(systems[1], name))
    for which in ("primal", "dual"):
        eta = [EstimatorWorkspace(EstimatorGeometry(space, s.elements), which).indicators(v)
               for s in systems]
        assert bits(eta[0].eta_sq) == bits(eta[1].eta_sq)


def test_element_data_memory_per_element():
    # only rows that vary from element to element are stored, and the
    # rows formed from an element's shape once per shape class: at p = 1
    # on goal-singularity (c = 1, c - div b = -1, g_res = 0) the rows take
    # at most 420 B per element, at p = 3 on zshape-convection at most
    # 2,300 B; the zero-order rows of zshape-convection are all constant
    import dataclasses

    def per_element(el):
        return sum(getattr(el, f.name).nbytes for f in dataclasses.fields(el)
                   if getattr(el, f.name) is not None) / len(el)

    problem = gf.get_benchmark("goal-singularity").problem
    space = gf.build_space(gf.uniform_refine(gf.initial_mesh("unit-square"), 10), 1)
    el = gf.assemble(space, problem).elements
    assert len(el) == 2048      # the rows shared by all elements add 0.1 B each
    assert per_element(el) <= 420
    assert el.f_res.shape == (len(el), el.val.shape[0])

    problem = gf.get_benchmark("zshape-convection").problem
    space = gf.build_space(gf.uniform_refine(gf.initial_mesh("zshape"), 2), 1)
    el = gf.assemble(space, problem).elements
    assert [getattr(el, n).shape for n in ("c", "c_dual", "f_res", "g_res")] == [(1, 1)] * 4
    space = gf.build_space(gf.uniform_refine(gf.initial_mesh("zshape"), 9), 3)
    el = gf.assemble(space, problem).elements
    assert len(el) == 3584 and per_element(el) <= 2300


@pytest.mark.parametrize("name", ["zshape-convection", "point-data"])
def test_convection_rows_at_p1_are_the_per_point_products_bit_for_bit(name):
    # at p = 1 grad phi is constant on the element, and the pass forms
    # b . grad phi as one product per basis function; the two-term
    # products commute, so the bits are those of one product per point
    from conftest import point_data_problem
    from goafem.assemble import _element_pass
    from goafem.problem import eval_vector
    from goafem.quadrature import triangle_rule
    from goafem.space import grad_lambda

    problem = point_data_problem() if name == "point-data" else gf.get_benchmark(name).problem
    mesh = gf.uniform_refine(gf.initial_mesh(problem.domain), 3)
    mesh = gf.refine(mesh, np.arange(0, mesh.n_triangles, 3))
    bary = triangle_rule(4)[0]
    x = np.matmul(bary[None, :, :], mesh.vertices[mesh.triangles])
    grad = np.broadcast_to(grad_lambda(mesh)[:, None], x.shape[:2] + (3, 2))
    want = np.matmul(grad, eval_vector(problem.b_conv, x)[:, :, :, None])[:, :, :, 0]
    assert np.array_equal(_element_pass(gf.build_space(mesh, 1), problem).conv, want)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_flux_rows_are_the_einsum_forms_bit_for_bit(p, monkeypatch):
    # the pass forms the flux terms of f_loc and g_loc and the edge rows
    # f_edge and g_edge as explicit products in np.einsum's order, at p = 1
    # from one gradient row per element, and the trace points coordinate by
    # coordinate; flux data that is +0.0 or -0.0 on some points of an
    # element must give einsum's signs of zero
    import dataclasses

    from conftest import point_data_problem
    from goafem.assemble import _element_pass, _frame
    from goafem.basis import triangle_tables
    from goafem.problem import eval_scalar, eval_vector
    from goafem.quadrature import interval_rule, triangle_rule

    problem = dataclasses.replace(
        point_data_problem(),
        f_vec=lambda x: np.where(x[..., :1] > 0.1, np.stack(
            [np.sin(x[..., 1]), x[..., 0] * x[..., 1]], axis=-1), [0.0, -0.0]),
        g_vec=lambda x: np.where(x[..., :1] < -0.3, np.stack(
            [x[..., 0] * x[..., 1], -x[..., 1]], axis=-1), [-0.0, 0.0]))
    mesh = gf.uniform_refine(gf.initial_mesh(problem.domain), 3)
    mesh = gf.refine(mesh, np.arange(0, mesh.n_triangles, 3))
    space = gf.build_space(mesh, p)
    # blocks of 20 elements
    monkeypatch.setattr(importlib.import_module("goafem.assemble"), "_CHUNK", 60)
    el = _element_pass(space, problem)

    val, dbary, _ = triangle_tables(p, 2 * p + 2)
    scale, _, grad, la, dvec, n = _frame(space, np.arange(mesh.n_triangles), dbary)
    verts = mesh.vertices[mesh.triangles]
    x = np.matmul(triangle_rule(2 * p + 2)[0][None, :, :], verts)
    # the trace points element-major, where the pass forms them
    # coordinate-major with the same arithmetic, hence the same bits
    pa = np.take_along_axis(verts, la[:, :, None], axis=1)
    t_pts = interval_rule(2 * p + 2)[0]
    edge_x = pa[:, :, None, :] + t_pts[None, None, :, None] * dvec[:, :, None, :]
    centroids = (verts[:, 0] + verts[:, 1] + verts[:, 2]) / 3.0
    x_in = edge_x + 1e-6 * (centroids[:, None, None, :] - edge_x)
    for dens, flux, loc, edge in ((problem.f, problem.f_vec, el.f_loc, el.f_edge),
                                  (problem.g, problem.g_vec, el.g_loc, el.g_edge)):
        values = eval_vector(flux, x)
        on = values.any(axis=(1, 2))
        assert on.any() and not on.all() and (values[on] == 0.0).any()
        want = np.einsum("cq,cq,qi->ci", scale, eval_scalar(dens, x), val)
        want[on] += np.einsum("cq,cqd,cqid->ci", scale[on], values[on], grad[on])
        assert loc.tobytes() == want.tobytes()
        want = np.einsum("xeqd,xed->xeq", eval_vector(flux, x_in), n)
        assert np.signbit(want[want == 0.0]).sum() == 0 and (want == 0.0).any()
        assert edge.tobytes() == want.tobytes()


def test_shared_quadrature_rules_are_read_only():
    # every level reads the same cached rule, so a write to it would
    # change it for all later levels
    from goafem.quadrature import interval_rule, triangle_rule

    for table in (*triangle_rule(6), *interval_rule(6)):
        with pytest.raises(ValueError):
            table[0] = 0.0


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", ["goal-singularity", "zshape-convection"])
def test_free_matrices_match_all_dof_reference(name, p):
    # reference: CSR on all dofs, sliced to the free ones, symmetrised as a sum
    import scipy.sparse as sp
    from goafem.assemble import _element_pass, _full_form

    problem = gf.get_benchmark(name).problem
    mesh = gf.uniform_refine(gf.initial_mesh(problem.domain), 1)
    rng = np.random.default_rng(7)
    for _ in range(2):
        mesh = gf.refine(mesh, rng.choice(mesh.n_triangles, mesh.n_triangles // 3,
                                          replace=False))
    space = gf.build_space(mesh, p)
    system = gf.assemble(space, problem)
    elements = _element_pass(space, problem)
    a_loc, b_loc = elements.a_loc[elements.shape], _full_form(space, elements)
    dofs, nd, free = space.cell_dofs, space.cell_dofs.shape[1], space.free_dofs
    rows, cols = np.repeat(dofs, nd, axis=1).ravel(), np.tile(dofs, (1, nd)).ravel()

    def reference(loc):
        M = sp.coo_matrix((loc.ravel(), (rows, cols)), shape=(space.n_dofs,) * 2).tocsr()
        return M[free][:, free].tocsr()

    A_ref = reference(a_loc)
    for got, want in ((system.A_sym, 0.5 * (A_ref + A_ref.T)), (system.B, reference(b_loc))):
        assert got.nnz == want.nnz
        assert abs(got - want).max() <= 1e-12 * abs(want).max()
    assert (system.A_sym != system.A_sym.T).nnz == 0
    for attr in ("indices", "indptr"):
        assert not np.shares_memory(getattr(system.A_sym, attr), getattr(system.B, attr))


def test_asym_positive_definite(bench1):
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 3)
    system = gf.assemble(gf.build_space(mesh, 2), bench1.problem)
    eigmin = np.linalg.eigvalsh(system.A_sym.toarray()).min()
    assert eigmin > 0.0


def test_assemble_rejects_indefinite_a():
    problem = ProblemData(domain="unit-square", A=np.array([[1.0, 3.0], [3.0, 1.0]]), f=1.0)
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 1)
    with pytest.raises(ValueError):
        gf.assemble(gf.build_space(mesh, 1), problem)


def test_direct_residual_contract(bench1):
    # residual below 1e-12 relative for both sides
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 5)
    system = gf.assemble(gf.build_space(mesh, 1), bench1.problem)
    u = gf.solve_direct(system, "primal")
    z = gf.solve_direct(system, "dual")
    assert np.linalg.norm(system.B @ u.values - system.F_vec) <= 1e-12 * np.linalg.norm(system.F_vec)
    assert np.linalg.norm(system.B.T @ z.values - system.G_vec) <= 1e-12 * np.linalg.norm(system.G_vec)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_density_rows_are_the_einsum_bit_for_bit(p):
    # the load density rows, summed element-minor over the points, keep
    # the bits of np.einsum("cq,cq,qi->ci"), for varying and for constant
    # (broadcast) densities, with the weights of a real mesh
    from goafem.assemble import _density_rows, quadrature_weights
    from goafem.basis import triangle_tables

    val = triangle_tables(p, 2 * p + 2)[0]
    space = gf.build_space(gf.uniform_refine(gf.initial_mesh("zshape"), 3), p)
    scale = quadrature_weights(space)
    rng = np.random.default_rng(p)
    nt, nq = scale.shape
    for dens in (rng.standard_normal((nt, nq)) * 10.0 ** rng.integers(-8, 8, (nt, nq)),
                 np.broadcast_to(np.full((1, 1), -2.5), (nt, nq)),
                 np.where(rng.random((nt, nq)) < 0.5, -0.0, 1.0)):
        want = np.einsum("cq,cq,qi->ci", scale, dens, val)
        assert _density_rows(scale, dens, val).tobytes() == want.tobytes()
