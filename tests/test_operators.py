"""Commuting operator hierarchy: eigenrelations and moment extraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jackwalk.jack import jack_norm, jack_polynomial, principal_value
from jackwalk.measures import MeasureOnYoung, generating_function, pp_measure
from jackwalk.operators import (
    UVAR,
    apply_I,
    eigenvalue_of,
    eigenvalue_series,
    f_cumulant,
    joint_moment_multitime,
    joint_moment_via_operators,
    moment_factor,
    set_partitions,
)
from jackwalk.partitions import (enumerate_all_partitions,
                                 enumerate_partitions, length,
                                 make_partition)
from jackwalk.psum import PSumPoly, d_dp
from jackwalk.scalars import THETA, RationalFunction, as_exact
from jackwalk.series import ORDER_INF, TruncSeries
from jackwalk.specializations import specialize_ones
from jackwalk.verify import eigenrelation_cases
from test_scalars import substitute_theta

half = Fraction(1, 2)
one = Fraction(1)
two = Fraction(2)

#: numeric and symbolic theta on which the integer routes meet the oracles
THETAS = [half, one, two, Fraction(3, 7), THETA, (1 + THETA) / 2,
          THETA / (1 + THETA)]


# ---------------------------------------------------------------------------
# the oracles: L over Fraction / Q(theta) scalars, and the eigenvalue series
# as a product of truncated series times a reciprocal
# ---------------------------------------------------------------------------

class LaxState:
    """Sparse row map {row index: PSumPoly} threaded through powers of L."""

    def __init__(self, theta, row_polys):
        self.theta = as_exact(theta)
        self.row_polys = {i: f for i, f in row_polys.items() if f}

    def sweep(self):
        """One application of L."""
        th = self.theta
        inv = 1 / th
        diag = inv - 1
        new = {}

        def add(i, g):
            if not g:
                return
            prior = new.get(i)
            new[i] = g if prior is None else prior + g

        for j, f in self.row_polys.items():
            if j and diag:
                add(j, f * (j * diag))
            for i in range(j):
                add(i, f * PSumPoly.p(j - i))
            degrees = {part for key in f.terms for part in key}
            for s in degrees:
                add(j + s, d_dp(f, s) * (s * inv))
        return LaxState(th, new)


def oracle_apply_I(k, f, theta):
    state = LaxState(theta, {0: f})
    for _ in range(k):
        state = state.sweep()
    return state.row_polys.get(0, PSumPoly.zero())


def oracle_eigenvalue_series(lam, n, theta, order):
    lam = make_partition(lam)
    th = as_exact(theta)
    w = TruncSeries.monomial(UVAR, 1, 1, ORDER_INF)
    numer = w
    denom = TruncSeries.constant(UVAR, 1, ORDER_INF)
    padded = lam + (0,) * (n - len(lam))
    for i in range(1, n + 1):
        shift = padded[i - 1] / th
        numer = numer * (1 + (i - shift) * w)
        denom = denom * (1 + (i - 1 - shift) * w)
    denom = denom * (1 + n * w)
    return (numer * denom.reciprocal(order)).truncate(order + 1)


def typed(poly):
    """A PSumPoly's terms with the type of each coefficient."""
    return {key: (type(c), c) for key, c in poly.terms.items()}


def test_apply_I_kills_constants():
    assert apply_I(1, PSumPoly.one(), one).terms == {}
    assert apply_I(3, PSumPoly.one(), half).terms == {}


def test_theta_zero_has_no_operators():
    for k in (1, 2):
        with pytest.raises(ZeroDivisionError):
            apply_I(k, PSumPoly.p(2), 0)


_KEYS = [lam for d in range(5) for lam in enumerate_partitions(d)]
_fractions = st.builds(Fraction, st.integers(-6, 6),
                       st.sampled_from([1, 2, 3, 6]))
_rational_functions = st.builds(
    lambda a, b, c, d: RationalFunction((a, b), (c, d)),
    st.integers(-3, 3), st.integers(-2, 2), st.sampled_from([1, 2, 6]),
    st.integers(0, 2))


@st.composite
def psum_polys(draw):
    """PSumPolys of size <= 4 with all-Fraction or all-Q(theta)
    coefficients, constant denominators such as 2 and 6 included."""
    coeffs = draw(st.sampled_from([_fractions, _rational_functions]))
    keys = draw(st.lists(st.sampled_from(_KEYS), max_size=4, unique=True))
    return PSumPoly({key: draw(coeffs) for key in keys})


@settings(max_examples=120, deadline=None, derandomize=True)
@given(psum_polys(), st.sampled_from(THETAS), st.integers(1, 5))
def test_integer_sweeps_match_lax_state(f, theta, k):
    assert typed(apply_I(k, f, theta)) == typed(oracle_apply_I(k, f, theta))
    if k < 5:
        want = (oracle_apply_I(k, f, theta) / 3 ** k
                + oracle_apply_I(k + 1, f, theta) / 3 ** (k + 1))
        assert typed(moment_factor(k, f, 3, theta)) == typed(want)


def test_sweeps_on_jack_polynomials_match_lax_state():
    # symbolic J_(1,1) has coefficients +-1/2: the common denominator must
    # keep the integer content that a primitive polynomial gcd drops
    for theta in THETAS:
        for lam in enumerate_all_partitions(5):
            f = jack_polynomial(lam, theta)
            for k in range(1, 5):
                assert typed(apply_I(k, f, theta)) == \
                    typed(oracle_apply_I(k, f, theta))


def test_eigenvalues_match_product_route():
    # where an eigenvalue vanishes the oracle's series reads int 0 and the
    # recurrence gives a zero of theta's type
    for theta in THETAS:
        for lam in enumerate_all_partitions(6):
            for n in range(max(length(lam), 1), 7):
                series = oracle_eigenvalue_series(lam, n, theta, 7)
                for k in range(1, 7):
                    got = eigenvalue_of(k, lam, n, theta)
                    want = series.coefficient(k + 1)
                    assert got == want
                    assert want == 0 or type(got) is type(want)


def test_eigenvalues_frozen():
    assert eigenvalue_of(1, (2, 1), 3, one) == 0
    assert eigenvalue_of(2, (2, 1), 3, one) == 3
    assert eigenvalue_of(1, (3,), 2, half) == 0
    assert eigenvalue_of(2, (3,), 2, half) == 6
    assert eigenvalue_of(3, (1, 1), 2, two) == Fraction(-3, 2)


def test_eigenvalue_series_matches_pointwise():
    for theta in (half, THETA):
        s = eigenvalue_series((2, 1), 3, theta, order=6)
        o = oracle_eigenvalue_series((2, 1), 3, theta, order=6)
        assert s.var == "1/u"
        assert (s.low, s.order, s.coeffs) == (o.low, o.order, o.coeffs)
        for k in (1, 2, 3, 4):
            assert s.coefficient(k + 1) == eigenvalue_of(k, (2, 1), 3, theta)


def test_eigenrelation_sweep():
    for th in (one, Fraction(3, 7)):
        assert all(ok for _, ok in eigenrelation_cases(4, 4, 4, th))
    # symbolic theta on a smaller window
    assert all(ok for _, ok in eigenrelation_cases(3, 3, 3, THETA))


def test_commutativity():
    rng = random.Random(41)
    pool = [lam for d in range(6) for lam in enumerate_partitions(d)]
    for _ in range(10):
        f = PSumPoly.zero()
        for _ in range(4):
            f = f + PSumPoly.monomial(rng.choice(pool),
                                      Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for k1, k2 in [(1, 2), (2, 3), (1, 3)]:
            a = apply_I(k1, apply_I(k2, f, half), half)
            b = apply_I(k2, apply_I(k1, f, half), half)
            assert a.terms == b.terms


def test_moment_factor_on_eigenfunction():
    # on the normalized eigenfunction the factor multiplies by the exact
    # particle moment of the underlying diagram
    lam, n, th = (2, 1), 3, one
    f = jack_polynomial(lam, th) * (1 / principal_value(lam, n, th))
    g = moment_factor(1, f, n, th)
    assert specialize_ones(g, n) == pp_measure(lam, n, th).moment(1)
    g2 = moment_factor(2, f, n, th)
    assert specialize_ones(g2, n) == pp_measure(lam, n, th).moment(2)


def test_joint_moment_enumeration_dual_route():
    n, th = 2, half
    M = MeasureOnYoung(n, {(): Fraction(1, 3), (2,): Fraction(1, 2),
                           (2, 1): Fraction(1, 6)})
    F = generating_function(M, th)
    pp = {lam: pp_measure(lam, n, th) for lam in M.support}
    for ks in ([1], [2], [1, 1], [2, 1], [3], [1, 1, 1]):
        direct = sum(w * _prod(pp[lam].moment(k) for k in ks)
                     for lam, w in M.support.items())
        assert joint_moment_via_operators(F, n, th, ks) == direct


def _prod(values):
    out = Fraction(1)
    for v in values:
        out *= v
    return out


def test_multitime_reduces_at_time_zero():
    n, th = 2, one
    M = MeasureOnYoung(n, {(1,): half, (2, 2): half})
    F = generating_function(M, th)
    for ks in ([1], [2, 1]):
        schedule = [(0, k) for k in ks]
        assert joint_moment_multitime(F, [], n, th, schedule) == \
            joint_moment_via_operators(F, n, th, ks)


def test_multitime_identity_steps():
    n, th = 2, one
    M = MeasureOnYoung(n, {(1,): half, (2,): half})
    F = generating_function(M, th)
    gs = [PSumPoly.one(), PSumPoly.one()]
    base = joint_moment_via_operators(F, n, th, [1])
    for t in (0, 1, 2):
        assert joint_moment_multitime(F, gs, n, th, [(t, 1)]) == base


def test_multitime_one_bernoulli_step():
    # one update of the N = 1 chain from the empty diagram: the particle
    # measure mean is b/(1 + theta b), matching two-state enumeration
    th, b = two, Fraction(3)
    g = PSumPoly.zero()
    for lam in enumerate_all_partitions(3):
        val = _beta_value(lam, b, th)
        if val:
            g = g + jack_polynomial(lam, th) * (val / substitute_theta(jack_norm(lam), th))
    norm = specialize_ones(g, 1)
    assert norm == 1 + th * b
    g = g * (1 / norm)
    got = joint_moment_multitime(PSumPoly.one(), [g], 1, th, [(1, 1)])
    assert got == b / (1 + th * b)


def _beta_value(lam, b, th):
    from jackwalk.specializations import Specialization, specialize
    return specialize(jack_polynomial(lam, th),
                      Specialization.single_beta(b), th)


def test_multitime_schedule_validation():
    F = PSumPoly.one()
    with pytest.raises(ValueError):
        joint_moment_multitime(F, [PSumPoly.one()], 2, one, [(1, 1), (0, 1)])
    with pytest.raises(ValueError):
        joint_moment_multitime(F, [], 2, one, [(1, 1)])
    with pytest.raises(ValueError):
        joint_moment_multitime(F, [], 2, one, [(-1, 1)])


def test_f_cumulant_single_index():
    n, th = 2, half
    M = MeasureOnYoung(n, {(1,): Fraction(1, 4), (2, 1): Fraction(3, 4)})
    F = generating_function(M, th)
    for k in (1, 2, 3):
        direct = sum(w * eigenvalue_of(k, lam, n, th)
                     for lam, w in M.support.items())
        assert f_cumulant(F, n, th, [k]) == direct


def test_f_cumulant_pair_is_a_covariance():
    n, th = 2, half
    M = MeasureOnYoung(n, {(): Fraction(1, 6), (1, 1): Fraction(1, 3),
                           (3,): Fraction(1, 2)})
    F = generating_function(M, th)
    for k, l in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        ev_k = {lam: eigenvalue_of(k, lam, n, th) for lam in M.support}
        ev_l = {lam: eigenvalue_of(l, lam, n, th) for lam in M.support}
        mixed = sum(w * ev_k[lam] * ev_l[lam] for lam, w in M.support.items())
        mk = sum(w * ev_k[lam] for lam, w in M.support.items())
        ml = sum(w * ev_l[lam] for lam, w in M.support.items())
        assert f_cumulant(F, n, th, [k, l]) == mixed - mk * ml


def test_f_cumulant_vanishes_on_eigenfunctions():
    lam, n, th = (2, 1), 3, half
    F = jack_polynomial(lam, th) * (1 / principal_value(lam, n, th))
    assert f_cumulant(F, n, th, [1, 2]) == 0
    assert f_cumulant(F, n, th, [2, 2]) == 0
    assert f_cumulant(F, n, th, [1, 1, 2]) == 0


def test_set_partitions_bell_counts():
    assert [len(list(set_partitions(range(r)))) for r in range(6)] == \
        [1, 1, 2, 5, 15, 52]
    for blocks in set_partitions(range(4)):
        flat = sorted(x for block in blocks for x in block)
        assert flat == [0, 1, 2, 3]
