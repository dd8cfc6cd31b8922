"""Truncated Laurent series: windows, ring ops, exp/log, reversion."""

import random
from fractions import Fraction

import pytest

from jackwalk.errors import OrderError
from jackwalk.series import ORDER_INF, TruncSeries, geometric_alternating, revert


def random_series(rng, var="z", low_range=(-2, 2), width=6):
    low = rng.randint(*low_range)
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(width)]
    return TruncSeries(var, low, coeffs, low + width)


def test_window_semantics():
    s = TruncSeries("z", 0, [1, 2, 3], 5)
    assert s.low == 0 and s.order == 5
    assert s.coefficient(0) == 1
    assert s.coefficient(2) == 3
    assert s.coefficient(4) == 0          # inside the window, absent -> 0
    assert s.coefficient(-3) == 0         # below low -> identically 0
    with pytest.raises(OrderError):
        s.coefficient(5)                  # at/after order -> unknown


def test_constructors():
    c = TruncSeries.constant("z", 5)
    assert c.order == ORDER_INF and c.coefficient(0) == 5
    m = TruncSeries.monomial("z", -1, 7)
    assert m.low == -1 and m.coefficient(-1) == 7
    p = TruncSeries.polynomial("z", [1, 0, 2])
    assert p.coefficient(2) == 2 and p.coefficient(100) == 0
    z = TruncSeries.zero("z")
    assert not any(v for _, v in z.items())


def test_truncation_tracks_orders():
    s = TruncSeries("z", 0, [1, 2, 3], 5)
    t = TruncSeries("z", 0, [1, 1], 4)
    assert (s + t).order == 4
    assert (s * t).order == 4
    assert (s * TruncSeries.monomial("z", 2, 1)).order == 7
    assert s.truncate(3).order == 3


def test_ring_axioms_random():
    rng = random.Random(19)
    for _ in range(40):
        f, g, h = (random_series(rng) for _ in range(3))
        fg, gf = f * g, g * f
        assert list(fg.items()) == list(gf.items())
        lhs = (f * g) * h
        rhs = f * (g * h)
        assert list(lhs.items()) == list(rhs.items())
        assert lhs.order == rhs.order
        d = f * (g + h) - (f * g + f * h)
        assert not any(v for _, v in d.items())


def test_reciprocal():
    s = TruncSeries("z", 0, [1, 2, 3], 6)
    r = s.reciprocal()
    prod = r * s
    assert prod.coefficient(0) == 1
    assert all(prod.coefficient(k) == 0 for k in range(1, int(prod.order)))
    # Laurent valuation shifts through the reciprocal
    t = TruncSeries("z", 1, [1, 1], 5).reciprocal()
    assert t.low == -1 and t.coefficient(-1) == 1
    rng = random.Random(23)
    for _ in range(20):
        f = random_series(rng)
        if not f.coefficient(f.valuation()):
            continue
        g = f.reciprocal().reciprocal()
        d = f - g
        assert not any(v for _, v in d.items())


def test_exp_log():
    e = TruncSeries("z", 1, [1], 6).exp()
    assert [(k, v) for k, v in e.items()] == \
        [(0, 1), (1, 1), (2, Fraction(1, 2)), (3, Fraction(1, 6)),
         (4, Fraction(1, 24)), (5, Fraction(1, 120))]
    assert [(k, v) for k, v in e.log().items()] == [(1, 1)]
    lg = TruncSeries("z", 0, [1, 1], 6).log()
    assert [lg.coefficient(k) for k in range(1, 6)] == \
        [1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5)]
    with pytest.raises(ValueError):
        TruncSeries("z", 0, [2, 1], 5).log()
    with pytest.raises(ValueError):
        TruncSeries("z", 0, [1, 1], 5).exp()
    rng = random.Random(29)
    for _ in range(15):
        f = random_series(rng, low_range=(1, 2))
        d = f.exp().log() - f
        assert not any(v for _, v in d.items())


def test_derivative_integrate():
    s = TruncSeries("z", 0, [1, 2, 3], 5)
    assert list(s.derivative().items()) == [(0, 2), (1, 6)]
    assert [(k, v) for k, v in s.integrate().items()] == \
        [(1, Fraction(1)), (2, Fraction(1)), (3, Fraction(1))]
    rng = random.Random(31)
    for _ in range(15):
        f = random_series(rng, low_range=(0, 2))
        d = f.integrate().derivative() - f
        assert not any(v for _, v in d.items())


def test_compose_and_revert():
    f = TruncSeries("z", 1, [1, 1], 8)
    r = revert(f, "w")
    # signed Catalan numbers
    assert [r.coefficient(k) for k in range(1, 8)] == \
        [1, -1, 2, -5, 14, -42, 132]
    back = f.compose(r)
    assert [(k, v) for k, v in back.items()] == [(1, 1)]
    with pytest.raises(ValueError):
        revert(TruncSeries("z", 0, [1, 1], 5), "w")
    with pytest.raises(ValueError):
        f.compose(TruncSeries("w", 0, [1, 1], 5))
    rng = random.Random(37)
    for _ in range(10):
        coeffs = [Fraction(1)] + [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                  for _ in range(5)]
        g = TruncSeries("z", 1, coeffs, 7)
        h = revert(g, "w")
        d = g.compose(h) - TruncSeries.monomial("w", 1, 1, 7)
        assert not any(v for _, v in d.items())


def test_geometric_alternating():
    g = geometric_alternating("w", 5)
    assert list(g.items()) == [(0, 1), (1, -1), (2, 1), (3, -1), (4, 1)]
    check = g * TruncSeries.polynomial("w", [1, 1])
    assert check.coefficient(0) == 1
    assert all(check.coefficient(k) == 0 for k in range(1, 4))


def test_retag_and_nesting():
    inv = TruncSeries("1/z", 1, [1, 0, 2], 6)
    assert inv.retag("w").var == "w"
    # a foreign-variable series enters as a constant-term coefficient
    outer = TruncSeries("w", 0, [1], ORDER_INF) + inv
    assert outer.var == "w"
    inner = outer.coefficient(0)
    assert isinstance(inner, TruncSeries) and inner.var == "1/z"


def test_map_coefficients():
    s = TruncSeries("z", 0, [1, 2, 3], 5)
    doubled = s.map_coefficients(lambda c: 2 * c)
    assert [v for _, v in doubled.items()] == [2, 4, 6]
