import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import goafem as gf
from goafem.estimator import IndicatorField
from goafem.marking import _sort_key


def field(values):
    return IndicatorField(eta_sq=np.asarray(values, dtype=float))


def brute_force_min_cardinality(eta_sq, theta):
    """Smallest subset cardinality satisfying the Doerfler inequality."""
    n = eta_sq.shape[0]
    total = eta_sq.sum()
    masks = np.arange(2 ** n, dtype=np.uint32)
    bits = (masks[:, None] >> np.arange(n)[None, :]) & 1
    sums = bits @ eta_sq
    ok = sums >= theta * total - 1e-13 * total
    return int(bits[ok].sum(axis=1).min())


def test_hand_case():
    m = gf.doerfler_mark(field([9.0, 4.0, 1.0, 1.0]), 0.5)
    assert list(m) == [0]


def test_theta_one_marks_all_nonzero():
    m = gf.doerfler_mark(field([1.0, 0.0, 2.0, 0.0]), 1.0)
    assert sorted(m) == [0, 2]


def test_ties_broken_by_id():
    m = gf.doerfler_mark(field([1.0, 1.0, 1.0, 1.0]), 0.5)
    assert sorted(m) == [0, 1]


def test_zero_field():
    assert gf.doerfler_mark(field([0.0, 0.0]), 0.7).size == 0


def test_theta_range():
    with pytest.raises(ValueError):
        gf.doerfler_mark(field([1.0]), 0.0)
    with pytest.raises(ValueError):
        gf.doerfler_mark(field([1.0]), 1.5)


def test_doerfler_rejects_a_nan_indicator():
    # a NaN sorts first and makes every prefix sum NaN: [2 0 3 1], every
    # element, was marked
    with pytest.raises(ValueError, match="finite and non-negative"):
        gf.doerfler_mark(field([1.0, np.nan, 2.0, 0.5]), 0.5)
    with pytest.raises(ValueError, match="finite and non-negative"):
        gf.doerfler_mark(field([1.0, np.inf, 2.0, 0.5]), 0.5)


def test_doerfler_rejects_a_negative_squared_indicator():
    with pytest.raises(ValueError, match="finite and non-negative"):
        gf.doerfler_mark(field([1.0, -0.5, 2.0, 0.5]), 0.5)
    # -0.0 is zero, not negative
    assert list(gf.doerfler_mark(field([1.0, -0.0, 2.0, 0.5]), 0.5)) == [2]


def test_doerfler_postcondition_and_minimality_randomized():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 15))
        eta_sq = rng.random(n) ** 2
        if rng.random() < 0.2:
            eta_sq[rng.integers(0, n)] = 0.0
        theta = float(rng.uniform(0.05, 1.0))
        f = field(eta_sq)
        marked = gf.doerfler_mark(f, theta)
        assert gf.subset_total(f, marked) ** 2 >= theta * f.total_sq - 1e-12 * f.total_sq
        assert marked.size == brute_force_min_cardinality(eta_sq, theta)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=40),
       st.floats(min_value=0.01, max_value=1.0))
def test_doerfler_postcondition_property(values, theta):
    f = field(values)
    marked = gf.doerfler_mark(f, theta)
    if f.total_sq == 0.0:
        assert marked.size == 0
    else:
        assert gf.subset_total(f, marked) ** 2 >= theta * f.total_sq * (1.0 - 1e-12)


def test_doerfler_ties_within_2_to_the_minus_40_go_by_element_id():
    # element 1 is one ulp larger than element 0; an exact sort marks it,
    # and marks element 0 once the last bits of the two swap
    one_ulp = np.nextafter(1.0, 2.0)
    for eta_sq in ([1.0, one_ulp, 0.25], [one_ulp, 1.0, 0.25]):
        assert list(gf.doerfler_mark(field(eta_sq), 0.4)) == [0]
        assert list(gf.combine_marks([1, 0], [2], field(eta_sq), field(eta_sq))) == [0, 2]
    # a positive indicator keeps a positive key, a zero one is not marked
    assert list(gf.doerfler_mark(field([0.0, 5e-324]), 1.0)) == [1]
    # 2^-40 apart is a different key
    assert list(gf.doerfler_mark(field([1.0, 1.0 + 2.0 ** -39, 0.25]), 0.4)) == [1]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.floats(min_value=0.05, max_value=1.0))
def test_doerfler_marks_do_not_move_on_a_relative_1e_15_perturbation(seed, theta):
    # indicators formed in another summation order differ in their last
    # bits.  Near-ties, a few ulps apart, share their 40-bit key and go
    # by element id, so a relative 1e-15 change of every indicator keeps
    # the marks, unless a key moves across a 2^-40 boundary or a prefix
    # sum lies within rounding of the Doerfler bound
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    base = rng.random(rng.integers(1, 6)) ** 2
    eta_sq = rng.choice(base, n) * (1.0 + rng.integers(-4, 5, n) * 2.0 ** -52)
    eta_sq[rng.random(n) < 0.1] = 0.0
    perturbed = eta_sq * (1.0 + rng.uniform(-1e-15, 1e-15, n))
    assume(np.array_equal(_sort_key(perturbed), _sort_key(eta_sq)))
    marks = gf.doerfler_mark(field(eta_sq), theta)
    csum = np.cumsum(np.sort(eta_sq)[::-1])
    assume(np.all(np.abs(csum - theta * csum[-1]) > 1e-12 * csum[-1]))
    assert np.array_equal(gf.doerfler_mark(field(perturbed), theta), marks)
    # the dual field: the same values, reversed; combine_marks keeps the
    # largest of the larger set by the same keys
    other = gf.doerfler_mark(field(eta_sq[::-1]), theta)
    assert np.array_equal(gf.combine_marks(marks, other, field(eta_sq), field(eta_sq[::-1])),
                          gf.combine_marks(marks, other, field(perturbed),
                                           field(perturbed[::-1])))


def test_combine_marks_sizes():
    fu = field([5.0, 4.0, 3.0, 2.0, 1.0, 0.5])
    fz = field([0.5, 1.0, 2.0, 3.0, 4.0, 5.0])
    mu = np.array([0, 1, 2])
    mz = np.array([5, 4, 3, 2, 1])
    m = gf.combine_marks(mu, mz, fu, fz)
    # all of the smaller set, top-3 of the larger one
    assert set(m) == {0, 1, 2} | {5, 4, 3}
    assert m.size <= 6


def test_combine_marks_equal_sets():
    fu = field([3.0, 2.0, 1.0])
    m = gf.combine_marks(np.array([0, 1]), np.array([0, 1]), fu, fu)
    assert sorted(m) == [0, 1]


def test_combine_marks_disjoint():
    fu = field([3.0, 2.0, 1.0, 1.0])
    m = gf.combine_marks(np.array([0, 1]), np.array([2, 3]), fu, fu)
    assert sorted(m) == [0, 1, 2, 3]


def test_combine_marks_empty_side():
    fu = field([1.0, 1.0])
    assert gf.combine_marks(np.array([0]), np.array([], dtype=np.int64), fu, fu).size == 0


@pytest.mark.parametrize("marks, match", [
    ([-1], "invalid element ids"), ([4], "invalid element ids"),
    (np.array([1.7]), "integer element ids"), (np.array([True, False]), "boolean mask")])
@pytest.mark.parametrize("side", ["primal", "dual"])
def test_combine_marks_rejects_what_is_not_an_element_id(marks, match, side):
    # -1 was read from the end (element 3 of 4) and 1.7 truncated to 1
    fu = field([1.0, 2.0, 3.0, 4.0])
    mu, mz = (marks, [0]) if side == "primal" else ([0], marks)
    with pytest.raises(ValueError, match=f"{side} marks .*{match}"):
        gf.combine_marks(mu, mz, fu, fu)


def test_combine_marks_rejects_fields_of_different_lengths():
    with pytest.raises(ValueError, match="cover 4 and 3 elements"):
        gf.combine_marks([0], [0], field([1.0] * 4), field([1.0] * 3))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10 ** 6))
def test_combine_marks_is_the_union1d_of_the_top_sets(n, seed):
    # few distinct values, so that indicators tie within and across sets
    rng = np.random.default_rng(seed)
    fu, fz = (field(rng.integers(0, 4, size=n) / 4.0) for _ in range(2))
    mu, mz = (rng.permutation(n)[:rng.integers(0, n + 1)] for _ in range(2))
    s = min(mu.size, mz.size)

    def top(marks, eta_sq):
        return marks[np.lexsort((marks, -eta_sq[marks]))[:s]]

    expected = np.union1d(top(mu, fu.eta_sq), top(mz, fz.eta_sq)) if s else np.zeros(0, int)
    got = gf.combine_marks(mu, mz, fu, fz)
    assert got.dtype == np.int64 and np.array_equal(got, expected)


def test_marking_on_mesh_fields(bench1):
    # end-to-end: Doerfler sets on true indicator fields keep their
    # defining inequality after recomputation
    mesh = gf.uniform_refine(gf.initial_mesh("unit-square"), 3)
    space = gf.build_space(mesh, 1)
    system = gf.assemble(space, bench1.problem)
    u = gf.solve_direct(system, "primal")
    z = gf.solve_direct(system, "dual")
    fu = gf.indicators(space, bench1.problem, u, "primal")
    fz = gf.indicators(space, bench1.problem, z, "dual")
    for theta in (0.2, 0.5, 0.9):
        mu = gf.doerfler_mark(fu, theta)
        mz = gf.doerfler_mark(fz, theta)
        assert gf.subset_total(fu, mu) ** 2 >= theta * fu.total_sq * (1 - 1e-12)
        assert gf.subset_total(fz, mz) ** 2 >= theta * fz.total_sq * (1 - 1e-12)
        m = gf.combine_marks(mu, mz, fu, fz)
        s = min(mu.size, mz.size)
        assert s <= m.size <= 2 * s
