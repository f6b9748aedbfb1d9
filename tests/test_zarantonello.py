import numpy as np
import pytest

import goafem as gf


def _system(problem, domain="unit-square", refinements=4, p=1):
    mesh = gf.uniform_refine(gf.initial_mesh(domain), refinements)
    space = gf.build_space(mesh, p)
    return gf.assemble(space, problem)


def test_rhs_at_fixed_point(bench1):
    system = _system(bench1.problem)
    u = gf.solve_direct(system, "primal")
    rhs = gf.zarantonello_rhs(system, "primal", u, 0.5)
    assert np.allclose(rhs, system.A_sym @ u.values, rtol=1e-12, atol=1e-15)
    z = gf.solve_direct(system, "dual")
    rhs_d = gf.zarantonello_rhs(system, "dual", z, 0.5)
    assert np.allclose(rhs_d, system.A_sym @ z.values, rtol=1e-12, atol=1e-15)


def test_rhs_symmetric_delta_one(laplace):
    # B = A_sym and delta = 1 collapse the correction problem to the
    # original one, so one exact inner solve gives u_H*
    system = _system(laplace)
    rng = np.random.default_rng(0)
    w = rng.standard_normal(system.n)
    rhs = gf.zarantonello_rhs(system, "primal", w, 1.0)
    assert np.allclose(rhs, system.F_vec, rtol=1e-12, atol=1e-14)
    phi = gf.exact_phi(system, "primal", w, 1.0)
    u = gf.solve_direct(system, "primal")
    assert gf.energy_norm(system, phi.values - u.values) <= 1e-10


def test_rhs_zero_delta(bench1):
    system = _system(bench1.problem)
    rng = np.random.default_rng(1)
    w = rng.standard_normal(system.n)
    rhs = gf.zarantonello_rhs(system, "primal", w, 0.0)
    assert np.allclose(rhs, system.A_sym @ w, rtol=1e-13, atol=1e-15)
    out = gf.exact_phi(system, "primal", w, 0.0)
    assert np.allclose(out.values, w, rtol=1e-9, atol=1e-12)


def test_rhs_rejects_a_non_finite_delta(bench1):
    # nan < 0 is False: a NaN delta would pass a sign check and return NaNs
    system = _system(bench1.problem, refinements=1)
    for delta in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            gf.zarantonello_rhs(system, "primal", np.zeros(system.n), delta)


def test_rhs_validation(bench1):
    system = _system(bench1.problem)
    with pytest.raises(ValueError):
        gf.zarantonello_rhs(system, "primal", np.zeros(system.n), -0.5)
    with pytest.raises(ValueError):
        gf.zarantonello_rhs(system, "primal", np.zeros(system.n + 1), 0.5)
    with pytest.raises(ValueError):
        gf.zarantonello_rhs(system, "sideways", np.zeros(system.n), 0.5)


def test_fixed_point_residual(bench1):
    system = _system(bench1.problem)
    for which in ("primal", "dual"):
        star = gf.solve_direct(system, which)
        phi = gf.exact_phi(system, which, star, 0.5)
        assert gf.energy_norm(system, phi.values - star.values) <= max(
            1e-10 * gf.energy_norm(system, star), 1e-13)


@pytest.mark.parametrize("bench_name", ["goal-singularity", "zshape-convection"])
def test_contraction_delta_half(bench_name):
    """Measured Lipschitz constant < 1 over 20 random pairs at delta = 0.5.

    For the strong-convection benchmark the exact map is contractive
    only past the very coarse meshes, so the measurement happens at the
    resolution the adaptive run actually operates on.
    """
    spec = gf.get_benchmark(bench_name)
    refinements = 4
    system = _system(spec.problem, domain=spec.problem.domain, refinements=refinements)
    rng = np.random.default_rng(123)
    for which in ("primal", "dual"):
        worst = 0.0
        for _ in range(20):
            v = rng.standard_normal(system.n)
            w = rng.standard_normal(system.n)
            pv = gf.exact_phi(system, which, v, 0.5)
            pw = gf.exact_phi(system, which, w, 0.5)
            num = gf.energy_norm(system, pv.values - pw.values)
            den = gf.energy_norm(system, v - w)
            worst = max(worst, num / den)
        assert worst < 1.0


def test_symmetric_case_ratio_zero(laplace):
    system = _system(laplace)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(system.n)
    w = rng.standard_normal(system.n)
    pv = gf.exact_phi(system, "primal", v, 1.0)
    pw = gf.exact_phi(system, "primal", w, 1.0)
    ratio = (gf.energy_norm(system, pv.values - pw.values)
             / gf.energy_norm(system, v - w))
    assert ratio <= 1e-10
