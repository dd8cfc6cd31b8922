"""Power-sum polynomial ring: arithmetic, basis changes, scalar product."""

import math
import random
from fractions import Fraction

import pytest

from jackwalk import psum
from jackwalk.partitions import enumerate_partitions, z_lambda
from jackwalk.psum import (
    PSumPoly,
    d_dp,
    monomial_to_psum,
    psum_to_monomial,
    scalar_product,
)
from jackwalk.scalars import THETA, is_zero


def monomial_expansion(f):
    """Expand a PSumPoly in the monomial basis: {partition: coefficient}."""
    out = {}
    for key, val in f.terms.items():
        for mu, c in psum_to_monomial(key).items():
            acc = out.get(mu)
            contrib = val * c
            acc = contrib if acc is None else acc + contrib
            if is_zero(acc):
                out.pop(mu, None)
            else:
                out[mu] = acc
    return out


def random_poly(rng, max_degree=4, terms=4):
    pool = [lam for d in range(max_degree + 1)
            for lam in enumerate_partitions(d)]
    out = PSumPoly.zero()
    for _ in range(terms):
        lam = rng.choice(pool)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        out = out + PSumPoly.monomial(lam, c)
    return out


def test_constructors():
    assert PSumPoly.zero().terms == {}
    assert PSumPoly.one().terms == {(): 1}
    assert PSumPoly.p(2).terms == {(2,): 1}
    with pytest.raises(ValueError):
        PSumPoly.p(0)
    # zero coefficients are dropped
    assert PSumPoly({(1,): 0, (2,): 1}).terms == {(2,): 1}


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(30):
        f, g, h = (random_poly(rng) for _ in range(3))
        assert (f * g).terms == (g * f).terms
        assert (f * (g + h)).terms == (f * g + f * h).terms
        assert ((f * g) * h).terms == (f * (g * h)).terms
        assert (f + g).terms == (g + f).terms
        assert (f - f).terms == {}


def test_multiplication_merges_keys():
    f = PSumPoly.p(2) * PSumPoly.p(1)
    assert f.terms == {(2, 1): Fraction(1)}
    assert (f * PSumPoly.p(2)).terms == {(2, 2, 1): Fraction(1)}


def test_degree_and_components():
    f = PSumPoly({(2, 1): 1, (1,): 2, (): 3})
    assert f.degree() == 3
    assert {k: v for k, v in f.terms.items() if sum(k) == 1} == {(1,): 2}
    assert f.truncate(1).terms == {(1,): 2, (): 3}
    assert PSumPoly.zero().degree() == -1


def test_d_dp():
    f = PSumPoly({(2, 1): Fraction(3), (1, 1): 1})
    assert d_dp(f, 1).terms == {(2,): Fraction(3), (1,): Fraction(2)}
    assert d_dp(f, 2).terms == {(1,): Fraction(3)}
    assert d_dp(f, 5).terms == {}
    # Leibniz rule on random pairs
    rng = random.Random(11)
    for _ in range(20):
        f, g = random_poly(rng), random_poly(rng)
        lhs = d_dp(f * g, 2)
        rhs = d_dp(f, 2) * g + f * d_dp(g, 2)
        assert lhs.terms == rhs.terms


def test_monomial_basis_change():
    assert psum_to_monomial((1, 1)) == {(1, 1): 2, (2,): 1}
    assert psum_to_monomial((2,)) == {(2,): 1}
    assert monomial_to_psum((2,)).terms == {(2,): Fraction(1)}
    assert monomial_to_psum((1, 1)).terms == \
        {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}
    f = PSumPoly({(2, 1): Fraction(3), (1, 1): 1})
    assert monomial_expansion(f) == {(2, 1): Fraction(3), (3,): Fraction(3),
                                     (1, 1): Fraction(2), (2,): Fraction(1)}
    # round trip psum -> monomial -> psum on each basis element
    for d in range(6):
        for lam in enumerate_partitions(d):
            back = PSumPoly.zero()
            for mu, c in psum_to_monomial(lam).items():
                back = back + monomial_to_psum(mu) * c
            assert back.terms == {tuple(lam): Fraction(1)} if lam else \
                back.terms == {(): Fraction(1)}


def monomial_class_in_psum(size):
    """Oracle for the integer table: every m_mu of a size class over power
    sums in Fractions, by the triangular solve, most dominant first."""
    table = {}
    for mu in enumerate_partitions(size):
        acc = {mu: Fraction(1)}
        row = psum_to_monomial(mu)
        diag = row.pop(mu)
        for nu, c in row.items():
            for kappa, d in table[nu].items():
                val = acc.get(kappa, Fraction(0)) - c * d
                if val:
                    acc[kappa] = val
                else:
                    acc.pop(kappa, None)
        table[mu] = {k: v / diag for k, v in acc.items()}
    return table


def test_monomial_numerators_match_the_fraction_solve():
    for size in range(13):
        den, table = psum.monomial_numerators(size)
        assert den == math.factorial(size)
        oracle = monomial_class_in_psum(size)
        assert list(table) == list(oracle)
        for mu, row in table.items():
            assert dict(row) == {k: v * den for k, v in oracle[mu].items()}


def test_monomial_numerators_take_no_fractions(monkeypatch):
    expected = psum.monomial_numerators(10)

    def refuse(*args):
        raise AssertionError("Fraction in the integer solve")

    monkeypatch.setattr(psum, "_MONOMIAL_NUMERATORS", {})
    monkeypatch.setattr(psum, "Fraction", refuse)
    assert psum.monomial_numerators(10) == expected


def test_scalar_product_orthogonality():
    for d in range(1, 6):
        lams = list(enumerate_partitions(d))
        for lam in lams:
            for mu in lams:
                got = scalar_product(PSumPoly.monomial(lam),
                                     PSumPoly.monomial(mu), THETA)
                if lam == mu:
                    expect = z_lambda(lam) * THETA ** -len(lam)
                    assert got == expect
                else:
                    assert got == 0


def test_scalar_product_bilinearity():
    rng = random.Random(3)
    for _ in range(15):
        f, g, h = (random_poly(rng) for _ in range(3))
        assert scalar_product(f + g, h, THETA) == \
            scalar_product(f, h, THETA) + scalar_product(g, h, THETA)
        assert scalar_product(f, g, THETA) == scalar_product(g, f, THETA)
