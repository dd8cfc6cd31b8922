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

from dataclasses import dataclass
from fractions import Fraction

from .errors import StabilityError
from .scalars import as_exact


def _sorted_nonneg(values, label):
    out = tuple(sorted((Fraction(v) for v in values), reverse=True))
    if any(v < 0 for v in out):
        raise ValueError("%s entries must be nonnegative" % label)
    return out


@dataclass(frozen=True)
class Specialization:
    gamma: Fraction = Fraction(0)
    alphas: tuple = ()
    betas: tuple = ()
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        object.__setattr__(self, "alphas", _sorted_nonneg(self.alphas, "alpha"))
        object.__setattr__(self, "betas", _sorted_nonneg(self.betas, "beta"))
        object.__setattr__(self, "scale", Fraction(self.scale))
        if self.gamma < 0 or self.scale < 0:
            raise ValueError("gamma and scale must be nonnegative")

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

    def radius(self, theta):
        """Convergence radius min(1/alpha_i, 1/(theta*beta_i)); None = infinite."""
        theta = Fraction(theta)
        bounds = []
        if self.alphas and self.alphas[0] > 0:
            bounds.append(1 / self.alphas[0])
        if self.betas and self.betas[0] > 0:
            if theta <= 0:
                raise ValueError("radius with betas needs theta > 0")
            bounds.append(1 / (theta * self.betas[0]))
        if not bounds:
            return None
        return min(bounds)

    def is_stable(self, theta):
        r = self.radius(theta)
        return r is None or r > 1

    def require_stable(self, theta):
        if not self.is_stable(theta):
            raise StabilityError("specialization has radius <= 1: %r" % (self,))

    # -- serialization -------------------------------------------------------

    def to_json(self):
        return {"gamma": str(self.gamma),
                "alphas": [str(a) for a in self.alphas],
                "betas": [str(b) for b in self.betas],
                "scale": str(self.scale)}

    @staticmethod
    def from_json(obj):
        return Specialization(
            gamma=Fraction(str(obj.get("gamma", 0))),
            alphas=[Fraction(str(a)) for a in obj.get("alphas", [])],
            betas=[Fraction(str(b)) for b in obj.get("betas", [])],
            scale=Fraction(str(obj.get("scale", 1))))


class SpecializationUnion:
    """Union (rho, rho', ...): p_k of the union is the sum of components."""

    def __init__(self, components):
        self.components = tuple(components)

    def p_value(self, k, theta):
        return sum((c.p_value(k, theta) for c in self.components),
                   start=Fraction(0))

    def radius(self, theta):
        radii = [c.radius(theta) for c in self.components]
        radii = [r for r in radii if r is not None]
        return min(radii) if radii else None

    def is_stable(self, theta):
        r = self.radius(theta)
        return r is None or r > 1

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
