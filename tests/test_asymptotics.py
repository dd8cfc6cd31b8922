"""Limit-shape and fluctuation series: transforms, drifts, covariances."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jackwalk.asymptotics import (
    LimitData,
    _drift_factor,
    build_V,
    default_order,
    limit_covariance,
    limit_covariance_two_times,
    limit_moment,
    moments_to_stieltjes,
    packed_limit_moments,
    profile_series,
    toeplitz_wienerhopf_check,
    w_prime_of,
    walk_covariance_kernel,
    walk_drift_series,
    walk_limit_data,
)
from jackwalk.errors import OrderError, StabilityError
from jackwalk.measures import AtomicMeasure
from jackwalk.series import ORDER_INF, TruncSeries, _coeff_inv, revert
from jackwalk.specializations import Specialization
from jackwalk.verify import toeplitz_cases

half = Fraction(1, 2)
one = Fraction(1)


# -- the profile-integral oracle: H by inversion, integral and composition ----


def integrate(f):
    """Antiderivative with zero constant term; rejects a 1/x term."""
    out = []
    for k, c in zip(range(f.low, f.low + len(f.coeffs)), f.coeffs):
        if k == -1:
            if c:
                raise ValueError("cannot integrate a 1/%s term" % f.var)
            out.append(0)
        else:
            out.append(c * Fraction(1, k + 1))
    order = f.order if f.order == ORDER_INF else f.order + 1
    return TruncSeries(f.var, f.low + 1, out, order)


def compose(f, inner):
    """Substitute `inner` (positive valuation) for the variable of f."""
    if f.low < 0:
        raise ValueError("cannot compose a Laurent series")
    if not inner.coeffs:
        return TruncSeries.constant(inner.var, f.coefficient(0), inner.order)
    v = inner.valuation()
    if v < 1:
        raise ValueError("inner series must have positive valuation")
    bound = f.order if f.order == ORDER_INF else f.order * v
    acc = TruncSeries.zero(inner.var, bound)
    power = TruncSeries.constant(inner.var, 1)
    exponent = 0
    for k, c in f.items():
        while exponent < k:
            power = (power * inner).truncate(bound)
            exponent += 1
        acc = acc + power * c
    return acc.truncate(bound)


def stieltjes_inverse(m, var="z"):
    """Functional inverse 1/u + k_0 + k_1 u + ... of a Stieltjes series."""
    if m.valuation() != 1 or m.coefficient(1) != 1:
        raise ValueError("expected a Stieltjes series with leading mass 1")
    return revert(m, var).reciprocal()


def stieltjes_R_H(moments, order):
    """Moment list -> (Stieltjes m, R-transform, profile integral H).

    m is a series in "1/z"; R(z) = m^(-1)(z) - 1/z is a power series in z;
    H(x) = int_0^(ln x) (R(u)+1) du + ln(ln x / (x-1)) expanded about x = 1
    in the shifted variable "x-1".  H(1) = 0 by construction.  The oracle
    for profile_series, which is (1 + t) H'(t) about t = x - 1 = 0.
    """
    if order > len(moments):
        raise OrderError("need %d moments, got %d" % (order, len(moments)))
    m = moments_to_stieltjes(list(moments)[:order])
    k_series = stieltjes_inverse(m)
    r_series = k_series - TruncSeries.monomial("z", -1, 1)

    work = order + 2
    log_x = TruncSeries.polynomial("x-1", [1, 1]).truncate(work).log()
    anti = integrate(r_series + 1)
    first = compose(anti, log_x).retag("x-1")
    ratio = TruncSeries("x-1", 0,
                        [Fraction((-1) ** n, n + 1) for n in range(work)],
                        work)
    second = ratio.log()
    return m, r_series, (first + second).truncate(order + 1)


# -- the Burgers oracle: limit moments by evolving the Stieltjes series ---------


def stieltjes_moments(m, count):
    """First `count` moments encoded in a Stieltjes series."""
    return [m.coefficient(k + 1) for k in range(1, count + 1)]


def stieltjes_from_inverse(k_series):
    """Recover the Stieltjes series from its functional inverse."""
    return revert(k_series.reciprocal(), "1/z")


def burgers_evolve(m0, rho, tau, theta, order):
    """Evolve a Stieltjes series for time tau under a stable specialization,
    through its functional inverse: m_tau^(-1)(u) = tau T(e^u) + m0^(-1)(u),
    where T(y) = y W'(y).  Stable means every pole of W' lies beyond the
    unit disc: alpha_i < 1 and theta beta_i < 1."""
    if any(a >= 1 for c in rho.components for a in c.alphas) or \
            any(theta * b >= 1 for c in rho.components for b in c.betas):
        raise StabilityError("specialization has radius <= 1: %r" % (rho,))
    tau = Fraction(tau)
    if m0.valuation() != 1 or m0.coefficient(1) != 1:
        raise ValueError("expected a Stieltjes series with leading mass 1")
    if not tau:
        return m0.truncate(min(m0.order, order + 2))
    k0 = stieltjes_inverse(m0, var="u")
    work = int(k0.order) + 2
    exp_u = TruncSeries.monomial("u", 1, 1, work).exp()
    shift = (exp_u * w_prime_of(rho, theta, exp_u, work)).truncate(work)
    m_tau = stieltjes_from_inverse(k0 + shift * tau)
    if m_tau.order < order + 2:
        raise OrderError("initial data supports only %d moments, need %d" %
                         (int(m_tau.order) - 2, order))
    return m_tau.truncate(order + 2)


# -- the product oracles: residues read off whole products --------------------


def geometric_alternating(var, order):
    """The formal sum 1 - x + x^2 - ... truncated at `order`."""
    return TruncSeries(var, 0, [(-1) ** a for a in range(order)], order)


def product_limit_moment(k, U, theta):
    """limit_moment as the w^-1 coefficient of f^(k+1)/(1+w), formed whole."""
    f = _drift_factor(U, "w", theta)
    power = f ** (k + 1)
    if power.order <= -1:
        raise OrderError("drift series order too small for moment %d" % k)
    reach = 0 if power.order == ORDER_INF else int(power.order)
    geo = geometric_alternating("w", reach + k + 2)
    return (power * geo).coefficient(-1) * Fraction(1, k + 1)


def _product_factors(k, l, U_early, U_late, V_shifted, theta):
    """kernel * f_z^l, a w-series with z-series coefficients, and f_w^k."""
    inv_theta = _coeff_inv(theta)
    big_z = _drift_factor(U_late, "z", theta) ** l
    big_w = _drift_factor(U_early, "w", theta) ** k
    kernel_coeffs = [TruncSeries.monomial("z", a - 1, a * inv_theta)
                     for a in range(l, 0, -1)]
    kernel = TruncSeries("w", -l - 1, kernel_coeffs, ORDER_INF)
    kernel = kernel + V_shifted * (inv_theta * inv_theta)
    return kernel * big_z, big_w


def product_covariance_two_times(k, l, U_early, U_late, V_shifted, theta):
    """limit_covariance_two_times as the z^-1 w^-1 coefficient of the whole
    two-variable product kernel * f_z^l * f_w^k."""
    kernel_z, big_w = _product_factors(k, l, U_early, U_late, V_shifted,
                                       theta)
    res_w = (kernel_z * big_w).coefficient(-1)
    if not isinstance(res_w, TruncSeries):
        return Fraction(res_w)
    return res_w.coefficient(-1)


def product_residue_w(k, l, U_early, U_late, V_shifted, theta):
    """The w^-1 coefficient of the product as a z-series with its truncation
    order, summed term by term: the series constructor drops a zero
    coefficient at either end of the product, order and all."""
    kernel_z, big_w = _product_factors(k, l, U_early, U_late, V_shifted,
                                       theta)
    res = TruncSeries.zero("z")
    for e, row in kernel_z.items():
        g = big_w.coefficient(-1 - e)
        if g:
            res = res + row * g
    return res


def test_geometric_alternating():
    g = geometric_alternating("w", 5)
    assert list(g.items()) == [(0, 1), (1, -1), (2, 1), (3, -1), (4, 1)]
    check = g * TruncSeries.polynomial("w", [1, 1])
    assert check.coefficient(0) == 1
    assert all(check.coefficient(k) == 0 for k in range(1, 4))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OrderError:
        return OrderError


small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def drift_series(draw):
    """A drift series about 1, often truncated too early for the moments."""
    order = draw(st.integers(1, 12))
    coeffs = draw(st.lists(small_fractions, max_size=order))
    return TruncSeries("z-1", 0, coeffs, order)


@st.composite
def kernels(draw):
    """A symmetric shifted kernel; its rows are z-series or scalars."""
    order = draw(st.integers(1, 10))
    entries = {}
    for i in range(order):
        for j in range(i, order):
            entries[i, j] = entries[j, i] = draw(small_fractions)
    if draw(st.booleans()):
        rows = [TruncSeries("z", 0, [entries[i, j] for i in range(order)],
                            order) for j in range(order)]
    else:
        rows = [entries[0, j] for j in range(order)]
    return TruncSeries("w", 0, rows, order)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([half, one, Fraction(2), Fraction(3, 7)]),
       st.integers(1, 5), st.integers(1, 5),
       drift_series(), drift_series(), kernels())
def test_residue_sums_match_product_oracles(theta, k, l, U_early, U_late, V):
    # the early and late drifts differ, as at two different times; a
    # too-short truncation raises OrderError on both routes alike
    assert _outcome(limit_moment, k, U_early, theta) == \
        _outcome(product_limit_moment, k, U_early, theta)
    args = (k, l, U_early, U_late, V, theta)
    new = _outcome(limit_covariance_two_times, *args)
    old = _outcome(product_covariance_two_times, *args)
    if new != old:
        # the routes differ only where the product route's residue is a
        # zero series truncated at or below z^-1, which the series
        # constructor dropped, so that route answered 0 unchecked
        assert new is OrderError and old == 0
        res = product_residue_w(*args)
        assert not res and res.order <= -1


def test_covariance_raises_when_residue_undetermined():
    # the later drift is known only at (z-1)^0: the product route's residue
    # cancels to zero below z^-1 and it answers 0, yet every completion of
    # the two drifts tried here gives 6
    theta, k, l = one, 2, 3
    U_early = TruncSeries("z-1", 2, [-1, 1, 0, -1], 6)
    U_late = TruncSeries("z-1", 0, [0], 1)
    V = TruncSeries("w", 0, [-half, 2], 2)
    with pytest.raises(OrderError):
        limit_covariance_two_times(k, l, U_early, U_late, V, theta)
    assert product_covariance_two_times(k, l, U_early, U_late, V, theta) == 0
    U_early = TruncSeries("z-1", 2, U_early.coeffs, 14)
    for tail in ([], [1], [0, 1], [1, 1]):
        U_late = TruncSeries("z-1", 0, [0] + tail, 12)
        assert limit_covariance_two_times(k, l, U_early, U_late, V,
                                          theta) == 6
        assert product_covariance_two_times(k, l, U_early, U_late, V,
                                            theta) == 6


def bernoulli_walk_frame(tau, order=8):
    rho = Specialization.single_beta(one)
    moments = packed_limit_moments(2 * order)
    data = walk_limit_data(rho, one, [Fraction(tau)], moments, order)
    return data.U[0], build_V(data)


def test_packed_limit_moments():
    assert packed_limit_moments(6) == \
        [Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4),
         Fraction(1, 5), Fraction(-1, 6), Fraction(1, 7)]


def test_stieltjes_round_trips():
    moments = [Fraction(1, 2), Fraction(1, 3), Fraction(-1, 5), Fraction(2)]
    m = moments_to_stieltjes(moments)
    assert m.var == "1/z" and m.coefficient(1) == 1
    assert stieltjes_moments(m, 4) == moments
    k = stieltjes_inverse(m, var="u")
    back = stieltjes_from_inverse(k)
    assert stieltjes_moments(back, 4) == moments


def test_stieltjes_R_H_point_mass():
    m, R, H = stieltjes_R_H([Fraction(0)] * 9, 9)
    assert list(m.items()) == [(1, 1)]
    assert not any(c for _, c in R.items())
    assert H.coefficient(1) == half
    assert H.coefficient(2) == Fraction(-7, 24)
    assert H.coefficient(3) == Fraction(5, 24)


def test_H_prime_at_one_is_mean_shifted():
    # H'(1) = P(1) = m_1 + 1/2 across atomic measures, on the oracle and
    # on profile_series alike
    rng = random.Random(43)
    for _ in range(8):
        atoms = [(Fraction(rng.randint(-3, 3), 4), Fraction(1, 4))
                 for _ in range(4)]
        mu = AtomicMeasure(atoms)
        _, _, H = stieltjes_R_H(mu.moments(9), 9)
        assert H.derivative().coefficient(0) == mu.moment(1) + half
        assert profile_series(mu.moments(9), 9).coefficient(0) == \
            mu.moment(1) + half
    # packed and symmetric-uniform values used by the trend checks
    _, _, Hp = stieltjes_R_H(packed_limit_moments(9), 9)
    assert Hp.derivative().coefficient(0) == 0
    assert profile_series(packed_limit_moments(9), 9).coefficient(0) == 0
    uniform = [Fraction(0) if k % 2 else Fraction(1, k + 1)
               for k in range(1, 10)]
    _, _, Hu = stieltjes_R_H(uniform, 9)
    assert Hu.derivative().coefficient(0) == half
    assert profile_series(uniform, 9).coefficient(0) == half


@st.composite
def atomic_measures(draw):
    """A probability measure on up to four rational atoms."""
    atoms = draw(st.lists(
        st.tuples(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
                  st.integers(1, 5)), min_size=1, max_size=4))
    total = sum(w for _, w in atoms)
    return AtomicMeasure([(x, Fraction(w, total)) for x, w in atoms])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(atomic_measures(), st.integers(1, 25))
def test_profile_series_matches_profile_integral_oracle(mu, order):
    moments = mu.moments(order)
    _, _, H = stieltjes_R_H(moments, order)
    oracle = TruncSeries.polynomial("x-1", [1, 1]) * H.derivative()
    P = profile_series(moments, order)
    assert (P.var, P.low, P.order, P.coeffs) == \
        (oracle.var, oracle.low, oracle.order, oracle.coeffs)
    assert list(map(type, P.coeffs)) == list(map(type, oracle.coeffs))


def test_profile_series_of_packed_start_is_zero():
    # the uniform law on [-1, 0] has exp(m(y)) = 1 + 1/y, so
    # y = 1/(x - 1) and P = 0
    for order in range(1, 26):
        P = profile_series(packed_limit_moments(order), order)
        assert not P and P.order == order


def test_profile_series_of_point_mass():
    # exp(m(y)) = exp(1/y) = x gives y = 1/ln x: P(1 + t) = 1/ln(1+t) - 1/t,
    # whose coefficients are the Gregory coefficients
    P = profile_series([Fraction(0)] * 12, 12)
    assert [P.coefficient(k) for k in range(6)] == \
        [half, Fraction(-1, 12), Fraction(1, 24), Fraction(-19, 720),
         Fraction(3, 160), Fraction(-863, 60480)]
    ratio = TruncSeries("x-1", 0, [Fraction((-1) ** n, n + 1)
                                   for n in range(13)], 13)  # ln(1+t)/t
    expected = (ratio.reciprocal() - 1) * TruncSeries.monomial("x-1", -1, 1)
    assert (P.low, P.order, P.coeffs) == \
        (expected.low, expected.order, expected.coeffs)


def test_too_few_moments_are_refused():
    # the off-center two-atom start; walk_limit_data builds its one
    # profile to 2*order and refuses fewer moments, and the kernel reads
    # the profile up to (x-1)^(2*order - 1)
    mu = AtomicMeasure([(half, Fraction(3, 4)), (-half, Fraction(1, 4))])
    rho = Specialization.single_beta(one)
    with pytest.raises(OrderError, match=r"^need 16 moments, got 3$"):
        walk_limit_data(rho, one, [one], mu.moments(3), 8)
    with pytest.raises(OrderError, match=r"^need 16 moments, got 15$"):
        walk_limit_data(rho, one, [one], mu.moments(15), 8)
    with pytest.raises(OrderError, match=r"^need 5 moments, got 4$"):
        profile_series(mu.moments(4), 5)
    with pytest.raises(OrderError, match=r"x-1\^15 requested"):
        walk_covariance_kernel(profile_series(mu.moments(15), 15), 8)
    # and exactly enough is accepted
    walk_limit_data(rho, one, [one], mu.moments(16), 8)
    walk_covariance_kernel(profile_series(mu.moments(16), 16), 8)


def test_drifts_read_one_profile_below_their_order():
    # the drifts of walk_limit_data read its 2*order profile below
    # `order`: the same series, orders and coefficient types as from a
    # profile built to `order` itself; and the kernel, which reads it up
    # to (x-1)^(2*order - 1), is the one a 2*order + 1 profile gives
    rho = Specialization(half, [Fraction(1, 3)], [Fraction(2)])
    taus = [Fraction(0), half, one]
    for blocks in (TWO_BLOCK, THREE_BLOCK):
        for order in (1, 4, 8):
            moments = block_moments(blocks, 2 * order + 1)
            short = profile_series(moments, order)
            longer = profile_series(moments, 2 * order + 1)
            assert _dump(longer.truncate(order)) == _dump(short)
            for theta in (half, Fraction(3, 7)):
                drifts, kernel = walk_limit_data(rho, theta, taus, moments,
                                                 order)
                assert list(map(_dump, drifts)) == list(map(_dump,
                    walk_drift_series(rho, theta, taus, short, order)))
                assert _dump(kernel) == _dump(
                    walk_covariance_kernel(longer, order, theta))


#: sha256 of _packed_limit_data_dump(), recorded while the profile was
#: still built from H: it pins truncation orders and coefficient types as
#: well as values
GOLDEN_PACKED_LIMIT_DATA = \
    "e64feda51e9374a3365df4a94294b46b3a61b6be3ef7c927011968d1554110be"


def _dump(value):
    """var, low, order and every coefficient with its type, recursively."""
    if isinstance(value, TruncSeries):
        return "S(%s,%r,%r,[%s])" % (value.var, value.low, value.order,
                                     ",".join(map(_dump, value.coeffs)))
    return "%s:%r" % (type(value).__name__, value)


def _packed_limit_data_dump():
    """U, V and every limit moment and covariance for k, l <= order/3 of
    the packed start, on a grid of steps, orders, thetas and times."""
    lines = []
    for rho in (Specialization.single_beta(one),
                Specialization(half, [Fraction(1, 3)], [Fraction(2)])):
        for order in (4, 8, 12):
            moments = packed_limit_moments(2 * order + 1)
            for theta in (half, one, Fraction(2)):
                for tau in (Fraction(0), half, one):
                    (U,), V = walk_limit_data(rho, theta, [tau], moments,
                                              order)
                    lines += [_dump(U), _dump(V)]
                    for k in range(1, order // 3 + 1):
                        lines.append(_dump(limit_moment(k, U, theta)))
                        lines += [_dump(limit_covariance(k, l, U, V, theta))
                                  for l in range(1, order // 3 + 1)]
    return "\n".join(lines) + "\n"


def test_packed_limit_data_is_unchanged():
    digest = hashlib.sha256(_packed_limit_data_dump().encode()).hexdigest()
    assert digest == GOLDEN_PACKED_LIMIT_DATA


def test_limit_moment_zero_drift():
    for k in range(1, 7):
        assert limit_moment(k, 0, one) == Fraction((-1) ** k, k + 1)
        assert limit_moment(k, 0, half) == Fraction((-1) ** k, k + 1)


def test_limit_moment_constant_drift_shifts():
    c = Fraction(3, 2)
    U = TruncSeries.constant("z-1", c * half)
    assert limit_moment(1, U, half) - limit_moment(1, 0, half) == c


def test_limit_moment_bernoulli_walk():
    U, _ = bernoulli_walk_frame(1)
    assert [limit_moment(k, U, one) for k in range(1, 5)] == \
        [0, Fraction(1, 3), 0, Fraction(1, 5)]
    U_half, _ = bernoulli_walk_frame(Fraction(1, 2))
    assert limit_moment(1, U_half, one) == Fraction(-1, 4)


def test_limit_covariance_examples():
    zeroV = TruncSeries("w", 0, [TruncSeries("z", 0, [Fraction(0)], 6)], 6)
    assert limit_covariance(1, 1, 0, zeroV, one) == 0
    v = Fraction(5, 7)
    constV = TruncSeries("w", 0, [TruncSeries("z", 0, [v], 6)], 6)
    assert limit_covariance(1, 1, 0, constV, half) == v / half ** 2
    # a scalar kernel is the constant series
    assert limit_covariance(1, 1, 0, v, half) == v / half ** 2
    assert product_covariance_two_times(1, 1, 0, 0, v, half) == v / half ** 2


def test_limit_covariance_bernoulli_walk():
    U, V = bernoulli_walk_frame(1)
    assert limit_covariance(1, 1, U, V, one) == Fraction(1, 4)
    assert limit_covariance(2, 2, U, V, one) == Fraction(1, 8)
    assert limit_covariance(1, 2, U, V, one) == 0
    assert limit_covariance(1, 3, U, V, one) == Fraction(3, 16)
    assert limit_covariance(3, 1, U, V, one) == Fraction(3, 16)


def test_two_time_covariance_independent_increments():
    # the walk gains independent mass each step, so the covariance across
    # times equals the variance at the earlier time: tau/4 for k = l = 1
    U_q, V = bernoulli_walk_frame(Fraction(1, 4))
    U_h, _ = bernoulli_walk_frame(Fraction(1, 2))
    U_1, _ = bernoulli_walk_frame(1)
    assert limit_covariance(1, 1, U_h, V, one) == Fraction(1, 8)
    assert limit_covariance_two_times(1, 1, U_h, U_1, V, one) == Fraction(1, 8)
    assert limit_covariance_two_times(1, 1, U_q, U_1, V, one) == Fraction(1, 16)
    assert limit_covariance_two_times(1, 1, U_q, U_h, V, one) == Fraction(1, 16)
    # equal arguments reduce to the one-time value
    assert limit_covariance_two_times(2, 2, U_1, U_1, V, one) == \
        limit_covariance(2, 2, U_1, V, one)


def test_walk_covariance_kernel_symmetric():
    # the packed start produces the zero kernel; an off-center start does not
    packedV = walk_covariance_kernel(profile_series(packed_limit_moments(17),
                                                    17), 8)
    for j in range(6):
        row = packedV.coefficient(j)
        assert not isinstance(row, TruncSeries) or not any(v for _, v in row.items())

    mu = AtomicMeasure([(half, Fraction(3, 4)), (-half, Fraction(1, 4))])
    V = walk_covariance_kernel(profile_series(mu.moments(17), 17), 8)

    def entry(i, j):
        row = V.coefficient(i)
        return row.coefficient(j) if isinstance(row, TruncSeries) else 0

    # -P'(1) = -5/48 for this start, from the d_z d_w log(1 - (z-1)(w-1) D)
    # kernel (Bufetov-Gorin 2018), which the block starts below check
    assert entry(0, 0) == Fraction(-5, 48)
    assert any(entry(i, j) for i in range(6) for j in range(6))
    for i in range(6):
        for j in range(6):
            assert entry(i, j) == entry(j, i)


#: deterministic starts that are not packed: density 1 on a union of
#: intervals of total length 1
TWO_BLOCK = ((Fraction(-1), -half), (Fraction(0), half))
THREE_BLOCK = ((Fraction(-1), Fraction(-7, 10)), (-half, Fraction(-1, 5)),
               (Fraction(0), Fraction(2, 5)))


def block_moments(blocks, count):
    """Moments 1..count of density 1 on the union of `blocks`."""
    return [sum((b ** (k + 1) - a ** (k + 1)) / (k + 1) for a, b in blocks)
            for k in range(1, count + 1)]


def block_covariances(blocks, rho, theta, taus, ks):
    """{(tau, k, l): limit covariance} for k <= l in ks, from a start."""
    order = default_order(ks)
    drifts, V = walk_limit_data(rho, theta, taus,
                                block_moments(blocks, 2 * order), order)
    return {(tau, k, l): limit_covariance(k, l, U, V, theta)
            for tau, U in zip(taus, drifts) for k in ks for l in ks if k <= l}


def test_two_block_start_variances():
    # beta = theta = 1.  The k = 1 variance is the mass law's tau/4, as
    # from the packed start.  The k = 2 variance at tau = 1 is the limit
    # of the exact finite-N values 0.40125, 0.38781, 0.38133, 0.37815 at
    # N = 10, 20, 40, 80, whose distance to 3/8 halves as N doubles.  With
    # log(1 + ...) in place of log(1 - ...) the kernel gave 3/8, 1/2, 5/8
    # for k = 1 and 3/16 for k = 2.
    got = block_covariances(TWO_BLOCK, Specialization.single_beta(one), one,
                            [Fraction(0), half, one], [1, 2])
    assert [got[tau, 1, 1] for tau in (0, half, one)] == \
        [0, Fraction(1, 8), Fraction(1, 4)]
    assert got[one, 2, 2] == Fraction(3, 8)


@pytest.mark.parametrize("blocks, beta", [(TWO_BLOCK, one),
                                          (THREE_BLOCK, Fraction(2, 3))])
@pytest.mark.parametrize("theta", [half, one, Fraction(2), Fraction(3, 7)])
def test_deterministic_start_does_not_fluctuate_at_time_zero(blocks, beta,
                                                            theta):
    # every covariance vanishes at tau = 0, and the k = 1 variance is the
    # packed start's at every time: the mass added is independent of the
    # start
    rho = Specialization.single_beta(beta)
    taus = [Fraction(0), half, one]
    got = block_covariances(blocks, rho, theta, taus, [1, 2, 3, 4])
    assert not any(v for (tau, _, _), v in got.items() if tau == 0)
    packed = block_covariances(((Fraction(-1), Fraction(0)),), rho, theta,
                               taus, [1])
    assert [got[tau, 1, 1] for tau in taus] == \
        [packed[tau, 1, 1] for tau in taus]


def test_burgers_cross_pipeline():
    rho = Specialization.single_beta(half)
    moments = packed_limit_moments(17)
    m0 = moments_to_stieltjes(moments)
    for tau in (half, one, Fraction(2)):
        evolved = burgers_evolve(m0, rho, tau, one, 8)
        (U,), _ = walk_limit_data(rho, one, [tau], moments, 8)
        assert stieltjes_moments(evolved, 4) == \
            [limit_moment(k, U, one) for k in range(1, 5)]
    # tau = 1/2 evolved moments, pinned
    assert stieltjes_moments(burgers_evolve(m0, rho, half, one, 8), 4) == \
        [Fraction(-1, 3), Fraction(11, 36), Fraction(-23, 108),
         Fraction(1201, 6480)]


def test_burgers_requires_stability():
    m0 = moments_to_stieltjes(packed_limit_moments(17))
    with pytest.raises(StabilityError):
        burgers_evolve(m0, Specialization.single_beta(one), one, one, 8)
    with pytest.raises(ValueError):
        burgers_evolve(TruncSeries("1/z", 0, [1, 1], 5),
                       Specialization.single_beta(half), one, one, 3)


def test_burgers_time_zero():
    m0 = moments_to_stieltjes(packed_limit_moments(17))
    ev = burgers_evolve(m0, Specialization.single_beta(half), 0, one, 6)
    assert stieltjes_moments(ev, 6) == packed_limit_moments(6)


def test_limit_data_is_the_pair_of_series():
    data = walk_limit_data(Specialization.single_beta(one), one, [half, one],
                           packed_limit_moments(9), 4)
    drifts, v_kernel = data
    assert len(drifts) == 2
    assert (data.U, build_V(data)) == (drifts, v_kernel)
    assert data == LimitData(drifts, v_kernel) == (drifts, v_kernel)
    with pytest.raises(AttributeError):
        data.U = v_kernel


def test_toeplitz_examples():
    ok, report = toeplitz_wienerhopf_check({}, 3)
    assert ok and len(report) == 4
    ok, _ = toeplitz_wienerhopf_check({-1: one}, 4)
    assert ok
    ok, report = toeplitz_wienerhopf_check({1: one, -1: one}, 5)
    assert ok
    assert "power 2: minor 1" in report[2]
    assert "power 4: minor 2" in report[4]


def test_toeplitz_random_suite():
    assert all(ok for _, ok in toeplitz_cases(10, 6, seed=7))


def test_default_order():
    assert default_order([1, 3]) == 10
    assert default_order([2]) == 8
