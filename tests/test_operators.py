"""Commuting operator hierarchy: eigenrelations and moment extraction."""

import random
from fractions import Fraction

import pytest

from jackwalk.jack import jack_norm, jack_polynomial, principal_value
from jackwalk.measures import MeasureOnYoung, generating_function, pp_measure
from jackwalk.operators import (
    apply_I,
    eigenvalue_of,
    eigenvalue_series,
    f_cumulant,
    joint_moment_multitime,
    joint_moment_via_operators,
    moment_factor,
    set_partitions,
)
from jackwalk.psum import PSumPoly
from jackwalk.scalars import THETA
from jackwalk.specializations import specialize_ones
from jackwalk.verify import eigenrelation_cases
from test_scalars import substitute_theta

half = Fraction(1, 2)
one = Fraction(1)
two = Fraction(2)


def test_apply_I_kills_constants():
    assert apply_I(1, PSumPoly.one(), one).terms == {}
    assert apply_I(3, PSumPoly.one(), half).terms == {}


def test_eigenvalues_frozen():
    assert eigenvalue_of(1, (2, 1), 3, one) == 0
    assert eigenvalue_of(2, (2, 1), 3, one) == 3
    assert eigenvalue_of(1, (3,), 2, half) == 0
    assert eigenvalue_of(2, (3,), 2, half) == 6
    assert eigenvalue_of(3, (1, 1), 2, two) == Fraction(-3, 2)


def test_eigenvalue_series_matches_pointwise():
    s = eigenvalue_series((2, 1), 3, half, order=6)
    assert s.var == "1/u"
    for k in (1, 2, 3, 4):
        assert s.coefficient(k + 1) == eigenvalue_of(k, (2, 1), 3, half)


def test_eigenrelation_sweep():
    for th in (one, Fraction(3, 7)):
        assert all(ok for _, ok in eigenrelation_cases(4, 4, 4, th))
    # symbolic theta on a smaller window
    assert all(ok for _, ok in eigenrelation_cases(3, 3, 3, THETA))


def test_commutativity():
    rng = random.Random(41)
    from jackwalk.partitions import enumerate_partitions
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
    from jackwalk.partitions import enumerate_all_partitions
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
