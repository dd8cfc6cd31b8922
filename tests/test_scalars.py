"""Exact scalar layer: rational functions of the deformation parameter."""

import hashlib
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from jackwalk import cli, jack, scalars
from jackwalk.scalars import (
    THETA,
    RationalFunction,
    _heu_gcd,
    _padd,
    _pgcd,
    _pmul,
    _pneg,
    _pquo,
    _prs_gcd,
    _ptrim,
    as_exact,
    as_fraction,
    is_zero,
    parse_fraction,
    parse_theta,
    scalar_from_json,
    scalar_to_json,
)


# ---------------------------------------------------------------------------
# the fixed-theta oracle: exact evaluation of a scalar at theta = p/q
# ---------------------------------------------------------------------------

def _peval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def substitute_theta(x, value):
    """Evaluate a scalar at theta = value exactly; plain rationals pass
    through.  The oracle that fixed-theta tables are checked against."""
    if not isinstance(x, RationalFunction):
        return as_exact(x)
    value = Fraction(value)
    d = _peval(x.den, value)
    if d == 0:
        raise ZeroDivisionError("denominator vanishes at theta=%s" % value)
    return _peval(x.num, value) / d


def test_theta_is_the_generator():
    assert isinstance(THETA, RationalFunction)
    assert str(THETA) == "(t)"
    assert substitute_theta(THETA, Fraction(3, 7)) == Fraction(3, 7)


def test_field_arithmetic():
    x = (1 + 2 * THETA) / (1 + THETA)
    y = THETA / (1 + THETA)
    assert x + y == (1 + 3 * THETA) / (1 + THETA)
    assert x - x == 0
    assert x * (1 + THETA) == 1 + 2 * THETA
    assert (x / x) == 1
    assert -x + x == 0
    assert x ** 2 == x * x


def test_normalization_and_equality():
    assert (2 * THETA + 2) / 2 == THETA + 1
    assert (THETA * THETA - 1) / (THETA - 1) == THETA + 1
    assert THETA != THETA + 1
    assert is_zero(THETA - THETA)
    assert not is_zero(THETA)


def test_substitute_theta():
    x = (1 + 2 * THETA) / (1 + THETA)
    assert substitute_theta(x, Fraction(1, 2)) == Fraction(4, 3)
    assert substitute_theta(x, Fraction(1)) == Fraction(3, 2)
    assert substitute_theta(Fraction(5, 3), Fraction(2)) == Fraction(5, 3)
    with pytest.raises(ZeroDivisionError):
        substitute_theta(x, Fraction(-1))


def test_as_fraction():
    assert as_fraction(Fraction(5)) == 5
    assert as_fraction((THETA + 1) - THETA) == 1
    with pytest.raises(ValueError):
        as_fraction(THETA)


def test_as_exact():
    assert as_exact(2) == Fraction(2)
    assert isinstance(as_exact(2), Fraction)
    assert as_exact(THETA) is THETA


def test_parse_theta():
    assert parse_theta("3/7") == Fraction(3, 7)
    assert parse_theta("1") == Fraction(1)
    assert parse_theta("symbolic") == THETA
    with pytest.raises(ValueError):
        parse_theta("0.5")
    with pytest.raises(ValueError):
        parse_theta("1e-2")
    with pytest.raises(ValueError):
        parse_theta("1/0")


def test_parse_fraction_reports_a_zero_denominator_as_bad_input():
    assert parse_fraction("-3/6") == Fraction(-1, 2)
    assert parse_fraction("0.25") == Fraction(1, 4)
    for text in ("1/0", "0/0", "x"):
        with pytest.raises(ValueError):
            parse_fraction(text)


def test_json_round_trip():
    for x in (Fraction(2, 3), THETA, (1 + 2 * THETA) / (3 - THETA)):
        assert scalar_from_json(scalar_to_json(x)) == x
    # hand-written configs may carry plain fraction strings or integers
    assert scalar_from_json("1/2") == Fraction(1, 2)
    assert scalar_from_json(2) == Fraction(2)
    # a hand-written pair is reduced like any other
    assert scalar_from_json({"num": [2, 2], "den": [0, 4]}) == \
        (1 + THETA) / (2 * THETA)


@pytest.mark.parametrize("obj", [
    {"num": [1.5], "den": [1]},
    {"num": [1], "den": [0]},
    {"num": [1], "den": []},
    {"num": [True], "den": [1]},
    {"num": [1], "den": [False, 1]},
    {"num": "1", "den": [1]},
    {"num": [1]},
    [1, 2],
    0.5,
    "1/0",
], ids=["float", "zero-den", "empty-den", "bool", "bool-den", "string-num",
        "no-den", "list", "float-scalar", "zero-den-string"])
def test_scalar_from_json_rejects_malformed_input(obj):
    with pytest.raises(ValueError):
        scalar_from_json(obj)


# ---------------------------------------------------------------------------
# the gcd: the heuristic against the pseudo-remainder sequence
# ---------------------------------------------------------------------------

#: coefficients up to 2^70 in magnitude, so that evaluation points pass 2^64
coefficients = st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70))


def polys(min_len=0, max_len=5):
    return st.lists(coefficients, min_size=min_len,
                    max_size=max_len).map(_ptrim)


def nonzero_polys(max_len=5):
    return polys(1, max_len).filter(bool)


@st.composite
def planted_pairs(draw):
    """(a, b) = (c f g, d f h): a common factor f, integer contents c and d
    of either sign, and cofactors that may be constant or, once, zero."""
    f = draw(nonzero_polys(4))
    c, d = (draw(st.integers(-12, 12).filter(bool)) for _ in range(2))
    g, h = draw(nonzero_polys()), draw(nonzero_polys())
    a, b = _pmul((c,), _pmul(f, g)), _pmul((d,), _pmul(f, h))
    zero = draw(st.sampled_from([None, "a", "b"]))
    return (() if zero == "a" else a), (() if zero == "b" else b)


def _assert_gcd_matches_prs(a, b):
    g, qa, qb = _pgcd(a, b)
    assert g == _prs_gcd(a, b)
    assert g[-1] > 0 and gcd(*g) == 1
    assert _pmul(g, qa) == a and _pmul(g, qb) == b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(planted_pairs())
def test_pgcd_matches_prs_on_planted_factors(pair):
    _assert_gcd_matches_prs(*pair)


def test_pgcd_corner_cases():
    for a, b in [((), (5,)), ((-4, -6), ()), ((6,), (0, 4)), ((7,), (-3,)),
                 ((2, 4), (2, 4)), ((-1, 0, 1), (-2, 2)), ((0, 1), (4, 1)),
                 ((3 * 2 ** 80, 2 ** 81), (0, 3, 2))]:
        _assert_gcd_matches_prs(a, b)


def test_heuristic_grows_past_an_unlucky_point(monkeypatch):
    # t and t + 4 at the first point xi = 4 share the value 4, which reads
    # back as t and divides only one of them; the next point settles it
    assert _heu_gcd((0, 1), (4, 1)) == ((1,), (0, 1), (4, 1))
    monkeypatch.setattr(scalars, "_HEU_TRIES", 1)
    assert _heu_gcd((0, 1), (4, 1)) is None
    _assert_gcd_matches_prs((0, 1), (4, 1))


# ---------------------------------------------------------------------------
# the ring: every operation gives the pair that plain PRS reduction gives
# ---------------------------------------------------------------------------

def prs_reduced(num, den):
    """num / den reduced the plain way: the PRS gcd of the whole pair divided
    out, then the common content, then the sign of den's lead."""
    num, den = _ptrim(num), _ptrim(den)
    if not num:
        return (), (1,)
    g = _prs_gcd(num, den)
    num, den = _pquo(num, g), _pquo(den, g)
    c = gcd(*num, *den) * (1 if den[-1] > 0 else -1)
    return tuple(x // c for x in num), tuple(x // c for x in den)


factors = st.sampled_from([(1,), (-3,), (1, 1), (-2, 0, 3), (5, -7)])


@st.composite
def raw_pairs(draw):
    """(num, den) with a planted common factor, den nonzero."""
    common = draw(factors)
    return (_pmul(draw(polys(0, 4)), common),
            _pmul(draw(nonzero_polys(4)), common))


def _pair(x):
    return x.num, x.den


def _ppow_plain(a, k):
    out = (1,)
    for _ in range(k):
        out = _pmul(out, a)
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(raw_pairs())
def test_constructor_matches_prs_reduction(pair):
    assert _pair(RationalFunction(*pair)) == prs_reduced(*pair)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(raw_pairs(), raw_pairs(), factors, factors,
       st.sampled_from([None, 0, 3, -2, Fraction(-5, 4)]))
def test_ring_operations_match_prs_reduction(xp, yp, s, t, scalar):
    # x = n s / (d t) and y = n' / (d' s t): x * y can cancel s across, and
    # x + y has denominators sharing t
    x = RationalFunction(*prs_reduced(_pmul(xp[0], s), _pmul(xp[1], t)),
                         _normalized=True)
    y = RationalFunction(*prs_reduced(yp[0], _pmul(yp[1], _pmul(s, t))),
                         _normalized=True)
    if scalar is not None:
        y = RationalFunction.from_value(scalar)
        assert _pair(scalar + x) == _pair(x + y)
        assert _pair(x - scalar) == _pair(x - y)
        assert _pair(scalar * x) == _pair(x * y)
    cross = _pmul(x.num, y.den), _pmul(y.num, x.den)
    assert _pair(x + y) == prs_reduced(_padd(*cross), _pmul(x.den, y.den))
    assert _pair(x - y) == prs_reduced(_padd(cross[0], _pneg(cross[1])),
                                       _pmul(x.den, y.den))
    assert _pair(x * y) == prs_reduced(_pmul(x.num, y.num),
                                       _pmul(x.den, y.den))
    if y:
        assert _pair(x / y) == prs_reduced(cross[0], _pmul(x.den, y.num))
    for k in range(-3, 4):
        if k < 0 and not x:
            continue
        num, den = (x.num, x.den) if k >= 0 else (x.den, x.num)
        assert _pair(x ** k) == prs_reduced(_ppow_plain(num, abs(k)),
                                            _ppow_plain(den, abs(k))), k


def test_prs_fallback_gives_the_same_results(tmp_path, monkeypatch):
    # with the heuristic giving up at once, every gcd takes the PRS route:
    # the ring, and a symbolic verify suite built from empty tables, still
    # give the same pairs and bytes
    from test_cli import GOLDEN_VERIFY

    x = (1 + 2 * THETA) / (THETA ** 2 - 1)
    y = (THETA - 1) ** 2 / (THETA + 2)
    z = 1 / (THETA + 1)

    def results():
        # each but the power cancels a factor t + 1 or t - 1
        return [_pair(v) for v in (x + z, x - z, x * y, x / z, y ** -3)]

    expected = results()
    calls = []
    monkeypatch.setattr(scalars, "_heu_gcd",
                        lambda a, b: calls.append((a, b)))
    monkeypatch.setattr(jack, "_BASES", {})
    assert results() == expected
    argv, digest = GOLDEN_VERIFY["cauchy"]
    out = tmp_path / "cauchy.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert calls
