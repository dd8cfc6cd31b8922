"""Particle measures on the line and probability measures on diagrams."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jackwalk import measures
from jackwalk.errors import ShapeError
from jackwalk.measures import (
    AtomicMeasure,
    MeasureOnYoung,
    empirical_density,
    empirical_moments_from_pp,
    generating_function,
    interval_moments,
    jack_measure,
    lr_measure,
    particle_locations,
    pp_measure,
    pp_moments_from_empirical,
)
from jackwalk.scalars import THETA
from jackwalk.series import TruncSeries
from jackwalk.specializations import Specialization, specialize_ones
from jackwalk.verify import moment_roundtrip_cases

half = Fraction(1, 2)
one = Fraction(1)


def test_atomic_measure_basics():
    m = AtomicMeasure([(Fraction(1, 2), Fraction(3, 4)),
                       (Fraction(-1, 2), Fraction(1, 4))])
    assert m.total_mass() == 1
    assert m.moment(1) == Fraction(1, 4)
    assert m.moment(2) == Fraction(1, 4)
    assert m.moments(2) == [Fraction(1, 4), Fraction(1, 4)]
    s = m.stieltjes_series(4)
    assert s.var == "1/z" and s.coefficient(1) == 1
    assert s.coefficient(2) == m.moment(1)
    assert s.coefficient(3) == m.moment(2)


def test_particle_locations():
    assert particle_locations((2, 1), 3, half) == \
        [Fraction(4, 3), Fraction(1, 3), Fraction(-2, 3)]
    assert particle_locations((), 2, one) == [Fraction(0), Fraction(-1, 2)]
    # strictly decreasing for any diagram
    rng = random.Random(13)
    for _ in range(20):
        lam = tuple(sorted((rng.randint(1, 6) for _ in range(rng.randint(0, 4))),
                           reverse=True))
        n = len(lam) + rng.randint(0, 2) or 1
        th = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        ys = particle_locations(lam, n, th)
        assert all(a > b for a, b in zip(ys, ys[1:]))


def _uniform_moments(blocks, count):
    """Moments of the uniform law on disjoint intervals of one length."""
    width = sum(Fraction(hi - lo) for lo, hi in blocks)
    return [sum(hi ** (k + 1) - lo ** (k + 1) for lo, hi in blocks)
            / ((k + 1) * width) for k in range(1, count + 1)]


@pytest.mark.parametrize("theta", [half, one, Fraction(2), Fraction(3, 7)],
                         ids=str)
def test_interval_moments(theta):
    # the packed diagram is uniform on [-1, 0] at every theta and N
    for n in (1, 4, 7):
        assert interval_moments((), n, theta, 8) == \
            _uniform_moments([(-1, 0)], 8)
    # each location y carries [y - 1/n, y]: (2, 2) at n = 4 lies at
    # 2/(4 theta), 2/(4 theta) - 1/4, -1/2 and -3/4
    lo = 1 / (2 * theta) - Fraction(1, 2)
    assert interval_moments((2, 2), 4, theta, 6) == _uniform_moments(
        [(-1, Fraction(-1, 2)), (lo, lo + Fraction(1, 2))], 6)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, 6), max_size=n).map(
        lambda parts: tuple(sorted(parts, reverse=True))),
    st.sampled_from([half, one, Fraction(2), Fraction(3, 7)]),
    st.integers(0, 12))))
def test_interval_moments_is_the_per_particle_sum(case):
    # each location y carries mass 1/n uniformly on [y - 1/n, y]; the runs
    # of equal rows (many here, with parts at most 6) telescope
    n, lam, theta, count = case
    ys = particle_locations(lam, n, theta)
    assert interval_moments(lam, n, theta, count) == [
        sum((y ** (k + 1) - (y - Fraction(1, n)) ** (k + 1) for y in ys),
            Fraction(0)) / (k + 1)
        for k in range(1, count + 1)]


def test_empirical_density():
    m = empirical_density((2, 1), 2, half)
    assert m.atoms == ((Fraction(2), half), (half, half))
    # uniform weights 1/n
    m3 = empirical_density((3, 1), 3, one)
    assert all(w == Fraction(1, 3) for _, w in m3.atoms)


def test_pp_measure_frozen():
    m = pp_measure((1,), 2, one)
    assert m.atoms == ((half, Fraction(3, 4)), (-half, Fraction(1, 4)))
    packed = pp_measure((), 3, one)
    assert packed.moment(1) == 0
    assert packed.total_mass() == 1
    assert [w for _, w in packed.atoms] == [1, 0, 0]


def test_pp_measure_mass_one():
    rng = random.Random(17)
    for _ in range(25):
        lam = tuple(sorted((rng.randint(1, 6) for _ in range(rng.randint(0, 4))),
                           reverse=True))
        n = len(lam) + rng.randint(0, 2) or 1
        th = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        assert pp_measure(lam, n, th).total_mass() == 1


def test_pp_stieltjes_product_identity():
    # the reweighted transform is prod (1 + 1/(n(z - y_i))) - 1
    rng = random.Random(19)
    for _ in range(10):
        lam = tuple(sorted((rng.randint(1, 5) for _ in range(rng.randint(1, 3))),
                           reverse=True))
        n = len(lam) + rng.randint(0, 1)
        th = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        ys = particle_locations(lam, n, th)
        order = 8
        prod = TruncSeries.constant("1/z", 1)
        for y in ys:
            # 1/(z - y) = sum y^j / z^(j+1)
            geom = TruncSeries("1/z", 1, [y ** j for j in range(order)],
                               order + 1)
            prod = prod * (1 + geom * Fraction(1, n))
        lhs = prod - 1
        rhs = pp_measure(lam, n, th).stieltjes_series(order)
        for k in range(1, order):
            assert lhs.coefficient(k) == rhs.coefficient(k)


def _pp_series_by_derivatives(c, n, order):
    """The exponent of the moment conversion as a sum of the power sums
    sum_i (z - y_i)^(-r), each the derivative of the one before: the loop
    that the closed-form exponent replaced."""
    coeffs = [Fraction(1)] + [measures.as_exact(x) for x in c]
    s = TruncSeries("1/z", 1, coeffs, order + 1)
    t_r = s * n                     # sum_i (z - y_i)^(-1)
    exponent = TruncSeries.zero("1/z", order + 1)
    r = 1
    while t_r and t_r.valuation() <= order:
        exponent = exponent + t_r * Fraction((-1) ** (r - 1), r * n ** r)
        # -(1/r) d/dz, and d/dz = -u^2 d/du in u = 1/z
        t_r = t_r.derivative() * TruncSeries.monomial("1/z", 2,
                                                      Fraction(1, r))
        r += 1
    return exponent.exp() - 1


MOMENT = st.one_of(
    st.builds(Fraction, st.integers(-8, 8), st.integers(1, 6)),
    st.just(0),
    st.builds(lambda a, b: THETA * a + b,
              st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
              st.integers(-2, 2)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(lambda order: st.tuples(
    st.just(order), st.integers(0, 5),
    st.lists(MOMENT, max_size=order - 1))))
def test_pp_series_closed_form_matches_derivatives(case):
    order, n, c = case
    got = measures._pp_series_from_empirical(c, n, order)
    want = _pp_series_by_derivatives(c, n, order)
    assert (got.var, got.low, got.order) == (want.var, want.low, want.order)
    assert [(type(x), x) for x in got.coeffs] == \
        [(type(x), x) for x in want.coeffs]


def test_moment_conversion_round_trip():
    assert all(ok for _, ok in moment_roundtrip_cases(25, 6, seed=99))
    with pytest.raises(ShapeError):
        pp_moments_from_empirical([one], 2, 3)
    with pytest.raises(ShapeError):
        empirical_moments_from_pp([one], [], 2, 2)


def test_moment_conversion_on_diagrams():
    # pp moments computed through the conversion match the direct reweighting
    for lam, n, th in [((2, 1), 2, one), ((3,), 2, half), ((2, 2, 1), 3, one)]:
        emp = empirical_density(lam, n, th)
        pp = pp_measure(lam, n, th)
        c = [emp.moment(k) for k in range(1, 5)]
        for k in range(1, 5):
            assert pp_moments_from_empirical(c, n, k) == pp.moment(k)
        c_pp = [pp.moment(k) for k in range(1, 5)]
        for k in range(1, 5):
            assert empirical_moments_from_pp(c_pp, c[:k - 1], n, k) == \
                emp.moment(k)


def test_measure_on_young():
    m = MeasureOnYoung(2, {(1,): half, (2, 2): half})
    assert m.weight((1,)) == half
    assert m.weight((3,)) == 0
    assert m.total_mass() == 1
    assert m.map_expectation(lambda lam: sum(lam)) == Fraction(5, 2)
    with pytest.raises(ShapeError):
        MeasureOnYoung(1, {(1, 1): one})


def test_generating_function():
    delta = MeasureOnYoung(2, {(): one})
    assert generating_function(delta, one).terms == {(): 1}
    M = MeasureOnYoung(2, {(1,): half, (2,): half})
    F = generating_function(M, one)
    # evaluating back at 1^n returns the total mass
    assert specialize_ones(F, 2) == 1


def test_jack_measure_frozen():
    jm = jack_measure(Specialization.single_beta(half),
                      Specialization.ones(2), one, 2, 3)
    assert jm.support == {(): Fraction(4, 9), (1,): Fraction(4, 9),
                          (1, 1): Fraction(1, 9)}
    assert jm.tail_deficit == 0
    assert jm.total_mass() == 1


def test_jack_measure_plancherel_truncation():
    jm = jack_measure(Specialization.plancherel(one),
                      Specialization.plancherel(one), one, 4, 4)
    assert jm.tail_deficit > 0
    assert 0 < jm.total_mass() <= 1
    # Plancherel-type weights on small diagrams: e^{-1} / (hook products)^2
    import math
    assert abs(float(jm.weight(())) - math.exp(-1)) < 1e-12
    assert abs(float(jm.weight((1,))) - math.exp(-1)) < 1e-12
    assert abs(float(jm.weight((2,))) - math.exp(-1) / 4) < 1e-12


def test_lr_measure():
    m = lr_measure((1,), (1,), 2)
    assert m.support == {(1, 1): Fraction(1, 4), (2,): Fraction(3, 4)}
    assert m.total_mass() == 1
    m2 = lr_measure((2, 1), (1,), 3, half)
    assert m2.total_mass() == 1
    assert all(w > 0 for w in m2.support.values())
