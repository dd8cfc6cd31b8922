"""Nonnegative specializations: p-values, unions, serialization."""

from fractions import Fraction

import pytest

from jackwalk.psum import PSumPoly
from jackwalk.scalars import THETA
from jackwalk.specializations import (
    Specialization,
    SpecializationUnion,
    specialize,
    specialize_ones,
)

half = Fraction(1, 2)
one = Fraction(1)


def test_p_values_single_beta():
    b = Specialization.single_beta(half)
    # p_k picks up (-theta)^(k-1) on the beta side
    assert b.p_value(1, THETA) == half
    assert b.p_value(2, THETA) == -THETA / 4
    assert b.p_value(3, THETA) == THETA ** 2 / 8
    assert b.p_value(2, Fraction(2)) == Fraction(-1, 2)


def test_p_values_single_alpha():
    a = Specialization.single_alpha(Fraction(1, 3))
    for k in (1, 2, 3):
        assert a.p_value(k, THETA) == Fraction(1, 3) ** k


def test_p_values_gamma():
    g = Specialization(gamma=Fraction(5))
    assert g.p_value(1, THETA) == 5
    assert g.p_value(2, THETA) == 0
    assert g.p_value(3, THETA) == 0


def test_ones_and_plancherel():
    o = Specialization.ones(3)
    assert o.alphas == (one, one, one)
    assert o.betas == ()
    assert o.p_value(1, THETA) == 3
    assert o.p_value(4, THETA) == 3
    pl = Specialization.plancherel(Fraction(2))
    assert pl.gamma == 2 and pl.alphas == () and pl.betas == ()
    assert Specialization.zero().p_value(1, THETA) == 0


def test_scale_multiplies_p_values():
    b = Specialization.single_beta(half)
    s = b.scaled(Fraction(3))
    assert s.scale == 3
    for k in (1, 2, 3):
        assert s.p_value(k, THETA) == 3 * b.p_value(k, THETA)


def test_negative_entries_rejected():
    with pytest.raises(ValueError):
        Specialization(alphas=(Fraction(-1, 2),))
    with pytest.raises(ValueError):
        Specialization(betas=(Fraction(-1),))


def test_specialization_is_a_normalised_value():
    s = Specialization(half, [1, 3], (Fraction(2),), 2)
    # atoms become Fractions in descending order, gamma and scale Fractions
    assert s.alphas == (3, 1) and s.betas == (2,)
    assert all(type(v) is Fraction
               for v in (s.gamma, s.scale) + s.alphas + s.betas)
    same = Specialization(gamma=half, alphas=(Fraction(3), 1), betas=[2],
                          scale=Fraction(2))
    assert s == same and hash(s) == hash(same)
    assert s != s.scaled(3)
    # a tuple: equal to the plain tuple of its fields
    assert s == (half, (3, 1), (2,), 2)
    with pytest.raises(AttributeError):
        s.gamma = one
    with pytest.raises(AttributeError):
        s.extra = one
    for bad in ({"gamma": -1}, {"scale": Fraction(-1, 3)}):
        with pytest.raises(ValueError):
            Specialization(**bad)


def test_union_adds_p_values():
    b = Specialization.single_beta(half)
    a = Specialization.single_alpha(Fraction(1, 3))
    assert b.components == (b,)
    u = SpecializationUnion([b, a])
    for k in (1, 2, 3):
        assert u.p_value(k, THETA) == b.p_value(k, THETA) + a.p_value(k, THETA)


def test_specialize_polynomials():
    b = Specialization.single_beta(half)
    f = PSumPoly({(2, 1): 1})
    assert specialize(f, b, THETA) == -THETA / 8
    assert specialize_ones(f, 3) == 9
    # constants pass through; specialization is an algebra morphism
    assert specialize(PSumPoly.one(), b, THETA) == 1
    g = PSumPoly.p(1) + 2
    assert specialize(g * g, b, THETA) == \
        specialize(g, b, THETA) ** 2


def test_json_round_trip():
    b = Specialization(gamma=half, alphas=(Fraction(1, 3),),
                       betas=(Fraction(2, 5), Fraction(1, 5)),
                       scale=Fraction(7, 2))
    assert Specialization.from_json(b.to_json()) == b
    u = SpecializationUnion([b, Specialization.ones(2)])
    blob = u.to_json()
    assert "union" in blob and len(blob["union"]) == 2
