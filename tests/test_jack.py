"""Jack symmetric functions: expansions, norms, skews, kernels, characters."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jackwalk import jack
from jackwalk.errors import DivergenceError
from jackwalk.jack import (
    KERNEL_TOLERANCE,
    _kernel_factors,
    basis_for,
    branching_weight,
    horizontal_strip_predecessors,
    jack_norm,
    jack_polynomial,
    log_derivative_at_unity,
    lr_expand,
    principal_value,
    reproducing_kernel,
    skew_jack,
)
from jackwalk.partitions import (
    contains,
    enumerate_all_partitions,
    enumerate_partitions,
    length,
    weight,
    z_lambda,
)
from jackwalk.psum import PSumPoly, monomial_to_psum, scalar_product
from jackwalk.scalars import THETA, RationalFunction
from jackwalk.specializations import (
    Specialization,
    SpecializationUnion,
    specialize,
    specialize_ones,
)
from jackwalk.verify import cauchy_cases
from test_partitions import dominance_leq
from test_psum import monomial_expansion
from test_scalars import substitute_theta

half = Fraction(1, 2)
one = Fraction(1)
two = Fraction(2)


def test_jack_polynomial_frozen():
    assert jack_polynomial((1,)).terms == {(1,): 1}
    assert jack_polynomial((2,)).terms == \
        {(1, 1): THETA / (1 + THETA), (2,): 1 / (1 + THETA)}
    assert jack_polynomial((1, 1)).terms == \
        {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}
    assert jack_polynomial((2, 1)).terms == \
        {(1, 1, 1): THETA / (1 + 2 * THETA),
         (2, 1): (1 - THETA) / (1 + 2 * THETA),
         (3,): -1 / (1 + 2 * THETA)}
    assert jack_polynomial((3,)).terms == \
        {(1, 1, 1): THETA ** 2 / (2 + 3 * THETA + THETA ** 2),
         (2, 1): 3 * THETA / (2 + 3 * THETA + THETA ** 2),
         (3,): 2 / (2 + 3 * THETA + THETA ** 2)}
    assert jack_polynomial(()).terms == {(): 1}


def test_schur_point():
    # theta = 1 collapses the (2,1) coefficient and gives the Schur expansion
    f = jack_polynomial((2, 1), one)
    assert f.terms == {(1, 1, 1): Fraction(1, 3), (3,): Fraction(-1, 3)}


def _assert_monic_triangular(theta, max_size):
    """Every row of the table is m_lam plus lower terms in dominance order."""
    for lam in enumerate_all_partitions(max_size):
        mono = monomial_expansion(jack_polynomial(lam, theta))
        assert mono[lam] == 1, (theta, lam)
        assert all(dominance_leq(mu, lam) for mu in mono), (theta, lam)


def test_monic_dominance_triangular():
    _assert_monic_triangular(THETA, 6)


@pytest.mark.parametrize("th", [half, one, two, Fraction(3, 7)])
def test_fixed_theta_tables_are_monic_triangular(th):
    _assert_monic_triangular(th, 8)


def test_orthogonality_and_norm():
    assert jack_norm((1,)) == 1 / THETA
    assert jack_norm((2,)) == 2 / (THETA + THETA ** 2)
    assert jack_norm((1, 1)) == (1 + THETA) / (2 * THETA ** 2)
    assert jack_norm((2, 1)) == (2 + THETA) / (THETA ** 2 + 2 * THETA ** 3)
    for d in range(1, 6):
        lams = list(enumerate_partitions(d))
        polys = {lam: jack_polynomial(lam) for lam in lams}
        for lam in lams:
            for mu in lams:
                got = scalar_product(polys[lam], polys[mu], THETA)
                assert got == (jack_norm(lam) if lam == mu else 0)


def test_principal_value():
    assert principal_value((2, 1), 3) == (6 + 18 * THETA) / (1 + 2 * THETA)
    assert principal_value((2, 1), 3, one) == 8
    assert principal_value((1,), 2) == 2
    assert principal_value((2,), 2) == (2 + 4 * THETA) / (1 + THETA)
    # fewer variables than rows kills the polynomial
    assert principal_value((2, 1, 1), 2) == 0
    for lam in enumerate_all_partitions(5):
        f = jack_polynomial(lam)
        for n in range(1, 6):
            assert principal_value(lam, n) == specialize_ones(f, n)


def test_skew_jack_frozen():
    assert skew_jack((2, 1), (1,)).terms == \
        {(1, 1): 3 * THETA / (1 + 2 * THETA),
         (2,): (1 - THETA) / (1 + 2 * THETA)}
    assert skew_jack((2,), (1,)).terms == {(1,): 2 * THETA / (1 + THETA)}
    assert skew_jack((1, 1), (1,)).terms == {(1,): 1}
    assert skew_jack((2, 1), (2, 1)).terms == {(): 1}
    assert skew_jack((2,), (1, 1)).terms == {}
    assert skew_jack((2, 1), ()).terms == jack_polynomial((2, 1)).terms


def skew_by_pairing(lam, mu, theta):
    """Oracle for skew_jack: sum over |nu| = |lam/mu| of
    <J_lam, J_mu J_nu>/(j_mu j_nu) J_nu, one table of size |lam/mu| and
    one product per nu."""
    d = weight(lam) - weight(mu)
    if d < 0 or not contains(lam, mu):
        return PSumPoly.zero()
    bas = basis_for(theta)
    out = PSumPoly.zero()
    for nu in enumerate_partitions(d):
        c = scalar_product(bas.polynomial(lam),
                           bas.polynomial(mu) * bas.polynomial(nu), bas.theta)
        out = out + bas.polynomial(nu) * (c / (bas.norm(mu) * bas.norm(nu)))
    return out


@pytest.mark.parametrize("theta", [THETA, half, Fraction(3, 7)], ids=str)
def test_skew_by_adjoint_matches_the_pairing(theta):
    # every pair mu <= lam with |lam| <= 5, contained or not
    pairs = 0
    for lam in enumerate_all_partitions(5):
        for mu in enumerate_all_partitions(weight(lam)):
            assert skew_jack(lam, mu, theta) == \
                skew_by_pairing(lam, mu, theta), (lam, mu)
            pairs += contains(lam, mu)
    assert pairs == 110


def test_skew_degrees():
    for lam in enumerate_all_partitions(5):
        for mu in enumerate_all_partitions(weight(lam)):
            if not contains(lam, mu):
                continue
            f = skew_jack(lam, mu)
            if weight(lam) == weight(mu):
                assert f.terms == {(): 1}
            else:
                assert f.degree() == weight(lam) - weight(mu)


def test_skew_chain_rule():
    rho = Specialization.single_beta(half)
    sig = Specialization.single_alpha(Fraction(1, 3))
    union = SpecializationUnion([rho, sig])
    for lam in enumerate_all_partitions(5):
        for nu in enumerate_all_partitions(weight(lam)):
            if not contains(lam, nu):
                continue
            lhs = specialize(skew_jack(lam, nu), union, half)
            rhs = 0
            for mu in enumerate_all_partitions(weight(lam)):
                if contains(lam, mu) and contains(mu, nu):
                    rhs += specialize(skew_jack(lam, mu), rho, half) * \
                        specialize(skew_jack(mu, nu), sig, half)
            assert lhs == rhs, (lam, nu)


def test_branching_weight():
    assert branching_weight((2, 1), (2,)) == 1
    assert branching_weight((1, 1), (1,)) == 1
    assert branching_weight((2,), (1,)) == 2 * THETA / (1 + THETA)
    assert branching_weight((2, 1), (1, 1)) == \
        (4 * THETA + 2 * THETA ** 2) / (1 + 3 * THETA + 2 * THETA ** 2)
    # zero off horizontal strips or containment
    assert branching_weight((2, 2), (1, 1)) == 0
    assert branching_weight((2,), (3,)) == 0
    # the weight is the one-variable specialization of the skew function
    alpha1 = Specialization.single_alpha(one)
    for lam in enumerate_all_partitions(5):
        for mu in horizontal_strip_predecessors(lam):
            assert branching_weight(lam, mu) == \
                specialize(skew_jack(lam, mu), alpha1, THETA)


def test_horizontal_strip_predecessors():
    assert sorted(horizontal_strip_predecessors((2, 1))) == \
        [(1,), (1, 1), (2,), (2, 1)]
    assert sorted(horizontal_strip_predecessors(())) == [()]
    for lam in enumerate_all_partitions(5):
        for mu in horizontal_strip_predecessors(lam):
            assert contains(lam, mu)
            # strips: no two added boxes share a column
            taller = [min(lam[i], (mu[i - 1] if i else lam[i]))
                      for i in range(length(lam))]
            assert all(lam[i] >= (mu[i] if i < len(mu) else 0) for i in range(length(lam)))


def test_lr_expand():
    assert lr_expand((1,), (1,)) == {(2,): 1, (1, 1): 2 / (1 + THETA)}
    assert lr_expand((), (2, 1)) == {(2, 1): 1}
    # dual route: coefficients reassemble the product
    for mu, eta in [((2,), (1,)), ((1, 1), (1,)), ((2, 1), (1,)), ((2,), (2,))]:
        prod = jack_polynomial(mu) * jack_polynomial(eta)
        acc = None
        for lam, c in lr_expand(mu, eta).items():
            term = jack_polynomial(lam) * c
            acc = term if acc is None else acc + term
        assert (prod - acc).terms == {}
    # degrees in the support match
    for lam in lr_expand((2, 1), (2,)):
        assert weight(lam) == 5


def test_lr_positivity_small():
    for th in (half, one, two):
        for mu in enumerate_all_partitions(4):
            for eta in enumerate_all_partitions(4 - weight(mu)):
                for c in lr_expand(mu, eta, th).values():
                    assert c >= 0


def test_log_derivative_at_unity():
    assert log_derivative_at_unity((), 3, one, [(1, 1)]) == 0
    assert log_derivative_at_unity((1,), 1, one, [(1, 1)]) == 1
    assert log_derivative_at_unity((1,), 2, one, [(1, 2)]) == Fraction(-1, 4)
    assert log_derivative_at_unity((2, 1), 3, half, [(1, 1)]) == 1
    assert log_derivative_at_unity((2, 1), 3, half, [(1, 1), (2, 1)]) == \
        Fraction(-4, 15)
    assert log_derivative_at_unity((3, 1), 4, two, [(2, 2)]) == \
        Fraction(-5, 18)


def test_reproducing_kernel_exact():
    assert reproducing_kernel(Specialization.zero(),
                              Specialization.ones(3)) == 1
    assert reproducing_kernel(Specialization.single_beta(half),
                              Specialization.ones(2)) == \
        (4 + 4 * THETA + THETA ** 2) / 4
    # alpha-beta cross pairs are polynomial factors, never divergent
    assert reproducing_kernel(Specialization.single_beta(Fraction(3)),
                              Specialization.ones(2), two) == 49
    # equal bases merge: (9/10)^(-theta) once per variable of 1^2 is
    # exact when theta N is an integer, and so is (1 + theta/2)^(1/2) twice
    assert reproducing_kernel(Specialization.single_alpha(Fraction(1, 10)),
                              Specialization.ones(2), half) == Fraction(10, 9)
    assert reproducing_kernel(Specialization(betas=(half,), scale=half),
                              Specialization.ones(2), THETA) == 1 + THETA / 2


def test_reproducing_kernel_numeric():
    pl = Specialization.plancherel(one)
    v = reproducing_kernel(pl, pl, one)
    assert isinstance(v, Fraction)
    assert abs(float(v) - math.e) < 1e-15


def test_reproducing_kernel_divergence():
    a1 = Specialization.single_alpha(one)
    with pytest.raises(DivergenceError):
        reproducing_kernel(a1, a1, one)
    b2 = Specialization.single_beta(two)
    with pytest.raises(DivergenceError):
        reproducing_kernel(b2, b2, one)
    with pytest.raises(DivergenceError):
        reproducing_kernel(Specialization.single_alpha(half),
                           Specialization.single_alpha(Fraction(3)), one)


@pytest.mark.parametrize("rho, sigma", [
    (Specialization.plancherel(one), Specialization.ones(2)),
    (Specialization.single_alpha(half), Specialization.ones(2)),
    (Specialization.single_beta(half), Specialization.single_beta(half)),
    (Specialization(betas=(half,), scale=half), Specialization.ones(1)),
], ids=["gamma", "alpha-alpha", "beta-beta", "fractional-weight-cross"])
def test_irrational_kernel_needs_a_numeric_theta(rho, sigma):
    with pytest.raises(ValueError, match="numeric theta"):
        reproducing_kernel(rho, sigma, THETA)


# -- the series oracle: the kernel by atanh, ln 2 and exp series -------------

_DENOM_GUARD = 2 ** 192


def _atanh(u, eps):
    total = Fraction(0)
    power = u
    k = 0
    u2 = u * u
    bound_scale = 1 / (1 - u2)
    while True:
        total += power / (2 * k + 1)
        power = (power * u2).limit_denominator(_DENOM_GUARD)
        k += 1
        if abs(power) * bound_scale / (2 * k + 1) < eps:
            return total.limit_denominator(_DENOM_GUARD)


def _ln2(eps):
    # ln 2 = 2 * atanh(1/3)
    return _atanh(Fraction(1, 3), eps / 2) * 2


def _ln_fraction(x, eps):
    """ln(x) for a positive Fraction, absolute error below eps."""
    shift = 0
    while x >= 2:
        x = x / 2
        shift += 1
    while x < 1:
        x = x * 2
        shift -= 1
    value = _atanh((x - 1) / (x + 1), eps / 4) * 2
    if shift:
        value = value + shift * _ln2(eps / (4 * abs(shift)))
    return value


def _exp_fraction(x, eps):
    """exp(x) for a Fraction, absolute error below eps (for |result| ~ 1+)."""
    halvings = 0
    while abs(x) > Fraction(1, 2):
        x = x / 2
        halvings += 1
    inner = eps / 4 ** (halvings + 1)
    total = Fraction(1)
    term = Fraction(1)
    j = 0
    while True:
        j += 1
        term = (term * x / j).limit_denominator(_DENOM_GUARD)
        total += term
        if 2 * abs(term) < inner:
            break
    for _ in range(halvings):
        total = (total * total).limit_denominator(_DENOM_GUARD)
    return total


def series_kernel(rho, sigma, theta):
    """H(rho, sigma; theta) at a numeric theta from the same factors, with
    every logarithm and the exponential summed as a series whose remainder
    stays below an absolute 2^-64."""
    factors, linear = _kernel_factors(rho, sigma, theta)
    tolerance = Fraction(1, 2 ** 64)
    work = tolerance / (8 * (len(factors) + 2))
    exponent = Fraction(linear)
    for base, e in factors:
        scale = max(1, math.ceil(abs(e)))
        exponent = exponent + e * _ln_fraction(base, work / scale)
    return _exp_fraction(exponent, tolerance / 4)


small_specializations = st.builds(
    Specialization,
    gamma=st.sampled_from([0, Fraction(1, 3), one]),
    alphas=st.lists(st.sampled_from([Fraction(1, 10), Fraction(1, 3), half]),
                    max_size=2),
    betas=st.lists(st.sampled_from([Fraction(1, 4), half, one]), max_size=2),
    scale=st.sampled_from([half, one, two]))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_specializations, small_specializations,
       st.sampled_from([half, one, two, Fraction(3, 7)]))
def test_kernel_matches_the_series_oracle(rho, sigma, theta):
    # decimal's correctly rounded exp and ln against the elementary
    # series, at every kernel the factors admit
    try:
        oracle = series_kernel(rho, sigma, theta)
    except DivergenceError:
        with pytest.raises(DivergenceError):
            reproducing_kernel(rho, sigma, theta)
        return
    value = reproducing_kernel(rho, sigma, theta)
    assert isinstance(value, Fraction) and value >= 1
    assert abs(value - oracle) <= 2 * KERNEL_TOLERANCE * value


def test_cauchy_degreewise():
    assert all(ok for _, ok in cauchy_cases(4, THETA))


def cauchy_by_pairs(max_degree, theta):
    """Oracle for cauchy_cases: the sum over lam of (J_lam tensor J_lam)
    / norm, pair by pair in Q(theta), against theta^len(nu)/z_nu on the
    diagonal."""
    basis = basis_for(theta)
    out = []
    for m in range(max_degree + 1):
        lhs = {}
        for lam in enumerate_partitions(m):
            poly = basis.polynomial(lam)
            inv_norm = 1 / basis.norm(lam)
            for key_a, ca in poly.terms.items():
                for key_b, cb in poly.terms.items():
                    pair = (key_a, key_b)
                    val = lhs.get(pair, 0) + ca * cb * inv_norm
                    if val:
                        lhs[pair] = val
                    else:
                        lhs.pop(pair, None)
        rhs = {(nu, nu): basis.theta ** length(nu) / z_lambda(nu)
               for nu in enumerate_partitions(m)}
        out.append(("degree=%d" % m, lhs == rhs))
    return out


@pytest.mark.parametrize("theta", [THETA, half], ids=str)
def test_cauchy_over_one_denominator_matches_the_pairs(theta):
    assert cauchy_cases(5, theta) == cauchy_by_pairs(5, theta)
    assert all(ok for _, ok in cauchy_cases(5, theta))


@pytest.mark.parametrize("theta", [THETA, half], ids=str)
def test_cauchy_sees_one_wrong_coefficient(monkeypatch, theta):
    monkeypatch.setattr(jack, "_BASES", {})
    terms = basis_for(theta).polynomial((2, 2)).terms
    monkeypatch.setitem(terms, (2, 1, 1), terms[(2, 1, 1)] + 1)
    assert [ok for _, ok in cauchy_cases(5, theta)] == \
        [True, True, True, True, False, True]


@pytest.mark.parametrize("theta", [one, half, Fraction(3, 7)], ids=str)
def test_cauchy_holds_past_the_gram_schmidt_reach(theta):
    # Gram-Schmidt checks the tables to size 8; the Cauchy identity checks
    # every power-sum coefficient of every table to size 12
    assert all(ok for _, ok in cauchy_cases(12, theta))


def test_basis_cache():
    b1 = basis_for(one)
    assert basis_for(one) is b1
    assert basis_for(THETA) is not b1
    b1.ensure_size(4)
    assert 4 in b1._done
    assert b1.polynomial((2, 1)) is basis_for(one).polynomial((2, 1))
    # a constant of Q(theta) shares the basis of the equal Fraction
    assert basis_for(RationalFunction.from_value(1)) is b1
    seven = basis_for(RationalFunction.from_value(Fraction(3, 7)))
    assert basis_for(Fraction(3, 7)) is seven
    assert seven.theta == Fraction(3, 7)


@pytest.mark.parametrize("th", [half, one, two, Fraction(3, 7)])
def test_fixed_theta_tables_match_substitution(th):
    # a fixed theta eliminates over Q; the symbolic table evaluated at the
    # same theta is the exact oracle for its tables and norms
    sym = basis_for(THETA)
    fixed = basis_for(th)
    for size in range(8):
        for lam in enumerate_partitions(size):
            oracle = PSumPoly({key: substitute_theta(c, th)
                               for key, c in sym.polynomial(lam).terms.items()})
            assert fixed.polynomial(lam).terms == oracle.terms, (th, lam)
            assert fixed.norm(lam) == substitute_theta(sym.norm(lam), th)


def gram_schmidt(size, theta):
    """Oracle for the tables: Gram-Schmidt over a size class, least
    dominant first, each row m_lam minus its projections on the rows
    already built; norms by the scalar product."""
    table, norms = {}, {}
    for lam in reversed(list(enumerate_partitions(size))):
        f = monomial_to_psum(lam)
        for mu in table:
            c = scalar_product(f, table[mu], theta)
            if c:
                f = f - table[mu] * (c / norms[mu])
        table[lam] = f
        norms[lam] = scalar_product(f, f, theta)
    return table, norms


@pytest.mark.parametrize("th, top", [(THETA, 7), (half, 8), (one, 8),
                                     (two, 8), (Fraction(3, 7), 8)], ids=str)
def test_tables_match_gram_schmidt(th, top):
    basis = basis_for(th)
    for size in range(top + 1):
        table, norms = gram_schmidt(size, basis.theta)
        for lam, poly in table.items():
            assert basis.polynomial(lam).terms == poly.terms, (th, lam)
            assert basis.norm(lam) == norms[lam], (th, lam)


@pytest.mark.parametrize("th, size", [(Fraction(-1), 2), (Fraction(-1, 2), 3),
                                      (Fraction(-2), 3), (Fraction(-1, 3), 4)])
def test_singular_theta_raises_at_its_size(th, size):
    # a squared norm vanishes first at this size class; smaller ones build
    basis = basis_for(th)
    for smaller in range(size):
        basis.ensure_size(smaller)
    with pytest.raises(ZeroDivisionError):
        basis.ensure_size(size)
