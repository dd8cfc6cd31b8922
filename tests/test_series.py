"""Truncated Laurent series: windows, ring ops, exp/log, reversion."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jackwalk.errors import OrderError
from jackwalk.scalars import RationalFunction
from jackwalk.series import ORDER_INF, TruncSeries, _coeff_inv, revert
from test_asymptotics import compose, integrate


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
    # a negative power is refused: the reciprocal is the one inverse
    with pytest.raises(ValueError):
        s ** -1
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
    assert [(k, v) for k, v in integrate(s).items()] == \
        [(1, Fraction(1)), (2, Fraction(1)), (3, Fraction(1))]
    rng = random.Random(31)
    for _ in range(15):
        f = random_series(rng, low_range=(0, 2))
        d = integrate(f).derivative() - f
        assert not any(v for _, v in d.items())


def test_compose_and_revert():
    f = TruncSeries("z", 1, [1, 1], 8)
    r = revert(f, "w")
    # signed Catalan numbers
    assert [r.coefficient(k) for k in range(1, 8)] == \
        [1, -1, 2, -5, 14, -42, 132]
    back = compose(f, r)
    assert [(k, v) for k, v in back.items()] == [(1, 1)]
    with pytest.raises(ValueError):
        revert(TruncSeries("z", 0, [1, 1], 5), "w")
    with pytest.raises(ValueError):
        compose(f, TruncSeries("w", 0, [1, 1], 5))
    rng = random.Random(37)
    for _ in range(10):
        coeffs = [Fraction(1)] + [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                  for _ in range(5)]
        g = TruncSeries("z", 1, coeffs, 7)
        h = revert(g, "w")
        d = compose(g, h) - TruncSeries.monomial("w", 1, 1, 7)
        assert not any(v for _, v in d.items())


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


# -- the term-by-term oracles -------------------------------------------------


def loop_product(f, g):
    """f * g for series in one variable, one coefficient pair at a time."""
    order = min(f.order + g.low, g.order + f.low)
    if not f.coeffs or not g.coeffs:
        return TruncSeries.zero(f.var, order)
    low = f.low + g.low
    n = len(f.coeffs) + len(g.coeffs) - 1
    if order != ORDER_INF:
        n = min(n, order - low)
    if n <= 0:
        return TruncSeries.zero(f.var, order)
    out = [0] * n
    for i, a in enumerate(f.coeffs):
        if not a:
            continue
        for j, b in enumerate(g.coeffs):
            if i + j < n and b:
                out[i + j] = out[i + j] + a * b
    return TruncSeries(f.var, low, out, order)


def dict_sum(f, g):
    """f + g for series in one variable, accumulated per exponent."""
    order = min(f.order, g.order)
    acc = {}
    for k, c in list(f.items()) + list(g.items()):
        acc[k] = acc.get(k, 0) + c
    acc = {k: c for k, c in acc.items() if k < order}
    if not acc:
        return TruncSeries.zero(f.var, order)
    return TruncSeries(f.var, min(acc), [acc.get(k, 0) for k in
                                         range(min(acc), max(acc) + 1)],
                       order)


def fixed_point_reciprocal(f, order=None):
    """1/f by rel - 1 rounds of acc <- 1 - h acc, where f = c0 x^v (1 + h)."""
    if not f.coeffs:
        raise ZeroDivisionError("reciprocal of a zero series")
    v = f.low
    if f.order == ORDER_INF:
        if order is None:
            raise ValueError("exact data needs an explicit order")
        rel = order + v
    else:
        rel = f.order - v
    c0i = _coeff_inv(f.coeffs[0])
    h = TruncSeries(f.var, 0, [c * c0i for c in f.coeffs],
                    f.order if f.order == ORDER_INF else rel)
    h = h.truncate(rel) - 1
    acc = TruncSeries.constant(f.var, 1, rel)
    for _ in range(max(rel - 1, 0)):
        acc = (1 - loop_product(h, acc)).truncate(rel)
    return TruncSeries(f.var, -v, [c * c0i for c in acc.coeffs], rel - v)


def power_sum_exp(f):
    """exp(f) as the sum of f^k / k!, one truncated power at a time."""
    if f.coeffs and f.low < 1:
        raise ValueError("exp needs a series with positive valuation")
    n = f.order
    if n == ORDER_INF:
        raise ValueError("exp of exact data needs a truncated input")
    acc = TruncSeries.constant(f.var, 1, n)
    power = TruncSeries.constant(f.var, 1)
    fact = 1
    k = 0
    while True:
        power = (power * f).truncate(n)
        if not power:
            break
        k += 1
        fact *= k
        acc = acc + power * Fraction(1, fact)
    return acc.truncate(n)


def power_sum_log(f):
    """log(f) as the sum of (-1)^(k+1) (f - 1)^k / k."""
    if f.coefficient(0) != 1 or f.low < 0:
        raise ValueError("log needs a series with constant term 1")
    n = f.order
    if n == ORDER_INF:
        raise ValueError("log of exact data needs a truncated input")
    h = f - 1
    acc = TruncSeries.zero(f.var, n)
    power = TruncSeries.constant(f.var, 1)
    k = 0
    sign = 1
    while True:
        power = (power * h).truncate(n)
        if not power:
            break
        k += 1
        acc = acc + power * Fraction(sign, k)
        sign = -sign
    return acc.truncate(n)


def assert_exp_log_match_power_sums(f):
    """exp(f) and log(1 + f) equal the power-sum oracles in window, order
    and values, with no inner order below the oracle's, for a series f of
    positive valuation."""
    for mine, oracle in ((f.exp(), power_sum_exp(f)),
                         ((1 + f).log(), power_sum_log(1 + f))):
        assert (mine.low, mine.order, mine.coeffs) == \
            (oracle.low, oracle.order, oracle.coeffs)
        for a, b in zip(mine.coeffs, oracle.coeffs):
            if isinstance(a, TruncSeries) and isinstance(b, TruncSeries):
                assert a.order >= b.order


def _typed(f):
    return f.low, f.order, [(c, type(c)) for c in f.coeffs]


def _outcome(fn, *args):
    try:
        p = fn(*args)
    except ValueError as exc:
        return type(exc)
    return p.low, p.order, p.coeffs


def _typed_outcome(fn, *args):
    try:
        return _typed(fn(*args))
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


rational_coefficients = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
int_lists = st.lists(st.integers(-5, 5), max_size=7)
fraction_lists = st.lists(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)), max_size=7)
mixed_lists = st.lists(rational_coefficients, max_size=7)


@st.composite
def rational_series(draw):
    """Int, Fraction or mixed coefficients, Laurent or not, exact or
    truncated at or past the last coefficient."""
    coeffs = draw(st.one_of(int_lists, fraction_lists, mixed_lists))
    low = draw(st.integers(-3, 3))
    if draw(st.booleans()):
        order = ORDER_INF
    else:
        order = low + len(coeffs) + draw(st.integers(0, 3))
    return TruncSeries("z", low, coeffs, order)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(rational_series(), rational_series(), st.integers(-4, 8))
def test_integer_paths_match_loop_and_fixed_point(f, g, order):
    p, q = f * g, loop_product(f, g)
    assert (p.low, p.order, p.coeffs) == (q.low, q.order, q.coeffs)
    # ints stay ints; any Fraction operand gives Fraction coefficients
    ints = all(type(c) is int for c in f.coeffs + g.coeffs)
    assert all(type(c) is (int if ints else Fraction) for c in p.coeffs)
    # sums keep the window and values, and ints stay ints; a stored
    # Fraction(0) takes part in its sum, so int + Fraction(0) is a Fraction
    p, q = f + g, dict_sum(f, g)
    assert (p.low, p.order, p.coeffs) == (q.low, q.order, q.coeffs)
    assert not ints or all(type(c) is int for c in p.coeffs)
    # an exact operand takes the requested order, a truncated one its own
    order = order if f.order == ORDER_INF else None
    assert _typed_outcome(TruncSeries.reciprocal, f, order) == \
        _typed_outcome(fixed_point_reciprocal, f, order)
    # exp and log by their recurrences give the power sums' windows and
    # values, refusals included; shifted to valuation 1 every f admits both
    for mine, oracle in ((TruncSeries.exp, power_sum_exp),
                         (TruncSeries.log, power_sum_log)):
        assert _outcome(mine, f) == _outcome(oracle, f)
    assert_exp_log_match_power_sums(
        TruncSeries("z", 1, f.coeffs, len(f.coeffs) + 2))


def _rf(a, b, c):
    return RationalFunction((a, b), (c, 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.builds(_rf, st.integers(-3, 3), st.integers(-2, 2),
                          st.integers(1, 3)), min_size=1, max_size=5),
       st.lists(rational_coefficients, min_size=1, max_size=5),
       st.integers(0, 3))
def test_rational_function_coefficients_unchanged(rfs, rats, extra):
    # Q(theta) coefficients, alone and mixed with rationals, keep the
    # term-by-term product; the recurrence gives the fixed-point reciprocal
    f = TruncSeries("z", 0, rfs, len(rfs) + extra)
    g = TruncSeries("z", -1, [x for pair in zip(rfs, rats) for x in pair],
                    ORDER_INF)
    for a, b in ((f, g), (g, f), (f, f)):
        p, q = a * b, loop_product(a, b)
        assert (p.low, p.order, p.coeffs) == (q.low, q.order, q.coeffs)
        p, q = a + b, dict_sum(a, b)
        assert (p.low, p.order, p.coeffs) == (q.low, q.order, q.coeffs)
    for a, order in ((f, None), (g, 5)):
        if a.coeffs:
            p = a.reciprocal(order)
            q = fixed_point_reciprocal(a, order)
            assert (p.low, p.order, p.coeffs) == (q.low, q.order, q.coeffs)
    assert_exp_log_match_power_sums(TruncSeries("z", 1, rfs,
                                                len(rfs) + 1 + extra))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.one_of(fraction_lists, int_lists), min_size=1, max_size=4),
       mixed_lists, st.integers(0, 2))
def test_nested_coefficients_unchanged(rows, scalars, extra):
    # a series in w with z-series coefficients: its products scale and
    # convolve the inner series, which now take the integer path
    inner = [TruncSeries("z", 0, [1] + row, len(row) + 1 + extra)
             for row in rows]
    f = TruncSeries("w", 0, inner, len(inner) + extra)
    g = TruncSeries("w", -1, list(scalars) + inner, ORDER_INF)
    for a, b in ((f, g), (g, f), (f, f)):
        p, q = a * b, loop_product(a, b)
        assert (p.low, p.order, p.coeffs) == (q.low, q.order, q.coeffs)
        p, q = a + b, dict_sum(a, b)
        assert (p.low, p.order, p.coeffs) == (q.low, q.order, q.coeffs)
    assert f.reciprocal() == fixed_point_reciprocal(f)
    # the shape of the covariance kernel's log(1 + z w D(z, w))
    assert_exp_log_match_power_sums(f * TruncSeries.monomial("w", 1, 1))
