"""Nonnegative specializations of the power-sum algebra.

A specialization is a triple (gamma, alphas, betas) of nonnegative rationals
plus a nonnegative rational `scale` multiplying every induced value:

    p_1  |->  scale * (gamma + sum(alphas) + sum(betas))
    p_k  |->  scale * (sum(alpha_i^k) + (-theta)^(k-1) * sum(beta_i^k)),  k >= 2

These are exactly the homomorphisms that are nonnegative on the deformed
basis this package orthogonalizes, so they serve as probability data.  The
`scale` field encodes "run the same step t times" and "N copies" without
duplicating lists.  Unions of specializations add their p_k values.
"""

from collections import namedtuple
from fractions import Fraction

from .scalars import as_exact, parse_fraction, refuse_unknown_keys


def _sorted_nonneg(values, label):
    out = tuple(sorted((Fraction(v) for v in values), reverse=True))
    if any(v < 0 for v in out):
        raise ValueError("%s entries must be nonnegative" % label)
    return out


class Specialization(namedtuple("Specialization",
                                 "gamma alphas betas scale")):
    """Fractions, atoms in descending order, none negative.  A tuple:
    iterable, and equal to the plain tuple of its fields."""

    __slots__ = ()

    def __new__(cls, gamma=0, alphas=(), betas=(), scale=1):
        gamma, scale = Fraction(gamma), Fraction(scale)
        alphas = _sorted_nonneg(alphas, "alpha")
        betas = _sorted_nonneg(betas, "beta")
        if gamma < 0 or scale < 0:
            raise ValueError("gamma and scale must be nonnegative")
        return super().__new__(cls, gamma, alphas, betas, scale)

    # -- canonical instances -------------------------------------------------

    @staticmethod
    def zero():
        return Specialization()

    @staticmethod
    def ones(n):
        """The pure-alpha specialization 1^n: every p_k maps to n."""
        return Specialization(alphas=(Fraction(1),) * n)

    @staticmethod
    def plancherel(t=1):
        return Specialization(gamma=Fraction(t))

    @staticmethod
    def single_alpha(a):
        return Specialization(alphas=(Fraction(a),))

    @staticmethod
    def single_beta(b):
        return Specialization(betas=(Fraction(b),))

    def scaled(self, factor):
        return Specialization(self.gamma, self.alphas, self.betas,
                              self.scale * Fraction(factor))

    @property
    def components(self):
        """The blocks whose p_k values add up: just this one."""
        return (self,)

    # -- induced values ------------------------------------------------------

    def p_value(self, k, theta):
        if k < 1:
            raise ValueError("power sum index must be >= 1")
        if k == 1:
            base = self.gamma + sum(self.alphas) + sum(self.betas)
            return self.scale * base
        theta = as_exact(theta)
        alpha_part = sum(a ** k for a in self.alphas)
        beta_part = sum(b ** k for b in self.betas)
        return self.scale * (alpha_part + (-theta) ** (k - 1) * beta_part)

    # -- serialization -------------------------------------------------------

    def to_json(self):
        return {"gamma": str(self.gamma),
                "alphas": [str(a) for a in self.alphas],
                "betas": [str(b) for b in self.betas],
                "scale": str(self.scale)}

    @staticmethod
    def from_json(obj):
        """Inverse of to_json; omitted fields take their defaults.  A
        non-object, a key other than gamma, alphas, betas and scale, or
        alphas or betas that are not lists, raise ValueError."""
        if not isinstance(obj, dict):
            raise ValueError("a specialization is a JSON object, got %r"
                             % (obj,))
        refuse_unknown_keys(obj, ("gamma", "alphas", "betas", "scale"),
                            "specialization")
        for key in ("alphas", "betas"):
            if not isinstance(obj.get(key, []), list):
                raise ValueError("%s must be a list, got %r"
                                 % (key, obj[key]))
        return Specialization(
            gamma=parse_fraction(str(obj.get("gamma", 0))),
            alphas=[parse_fraction(str(a)) for a in obj.get("alphas", [])],
            betas=[parse_fraction(str(b)) for b in obj.get("betas", [])],
            scale=parse_fraction(str(obj.get("scale", 1))))


class SpecializationUnion:
    """Union (rho, rho', ...): p_k of the union is the sum of components."""

    def __init__(self, components):
        self.components = tuple(components)

    def p_value(self, k, theta):
        return sum((c.p_value(k, theta) for c in self.components),
                   start=Fraction(0))

    def to_json(self):
        return {"union": [c.to_json() for c in self.components]}


def specialize(f, rho, theta):
    """Evaluate a PSumPoly under a specialization: substitute every p_k."""
    total = Fraction(0)
    cache = {}
    for key, coeff in f.terms.items():
        val = coeff
        for k in key:
            pk = cache.get(k)
            if pk is None:
                pk = cache[k] = rho.p_value(k, theta)
            val = val * pk
        total = total + val
    return total


def specialize_ones(f, n):
    """Evaluate at the pure-alpha point 1^n, where every p_k equals n."""
    total = Fraction(0)
    for key, coeff in f.terms.items():
        total = total + coeff * Fraction(n) ** len(key)
    return total
