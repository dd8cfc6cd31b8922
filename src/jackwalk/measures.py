"""Measures attached to diagrams: particle densities and random partitions.

A diagram lam with at most n rows defines n particle locations
y_i = lam_i/(theta*n) - (i-1)/n.  Two atomic measures live on them: the
empirical one (uniform weights) and a reweighted one whose Stieltjes
transform is a multiplicative perturbation of the empirical one; the latter
is what the operator family in :mod:`jackwalk.operators` sees.  Moments
of the two are related by exact triangular polynomial identities which this
module derives on the fly by truncated-series expansion rather than from
precomputed tables.

Random diagrams enter through weights built from the orthogonal basis:
measures with weights proportional to J_lam(rho1) J_lam(rho2) / j_lam, and
product-expansion measures with weights c^{mu eta}_lam scaled by principal
values.  Truncations always carry an explicit ``tail_deficit`` instead of
renormalizing silently.
"""

import math
import warnings
from fractions import Fraction

from .errors import ShapeError
from .jack import (basis_for, jack_polynomial, lr_expand, principal_value,
                   reproducing_kernel)
from .partitions import enumerate_all_partitions, length, make_partition
from .psum import PSumPoly
from .scalars import THETA, as_exact, as_fraction, is_zero
from .series import TruncSeries
from .specializations import specialize

__all__ = [
    "AtomicMeasure", "MeasureOnYoung", "empirical_density", "pp_measure",
    "pp_moments_from_empirical", "empirical_moments_from_pp", "jack_measure",
    "generating_function", "lr_measure",
]

ZVAR = "1/z"


class AtomicMeasure:
    """Finitely many weighted atoms on the rational line."""

    __slots__ = ("atoms",)

    def __init__(self, atoms):
        self.atoms = tuple((Fraction(x), as_exact(w)) for x, w in atoms)

    def total_mass(self):
        return sum((w for _, w in self.atoms), Fraction(0))

    def moment(self, k):
        return sum((w * x ** k for x, w in self.atoms), Fraction(0))

    def moments(self, count):
        """[moment(1), ..., moment(count)]."""
        return [self.moment(k) for k in range(1, count + 1)]

    def stieltjes_series(self, order):
        """Sum w/(z - x) expanded in 1/z through z^-order."""
        coeffs = [self.moment(k) for k in range(order)]
        return TruncSeries(ZVAR, 1, coeffs, order + 1)

    def __eq__(self, other):
        return isinstance(other, AtomicMeasure) and self.atoms == other.atoms

    def __repr__(self):
        return "AtomicMeasure(%r)" % (list(self.atoms),)


def particle_numerators(lam, n, theta):
    """The particle locations over one denominator: (nums, den) with
    y_i = nums[i-1] / den, where nums[i-1] = q lam_i - p (i-1) and
    den = p n for theta = p/q.  Integers only."""
    lam = make_partition(lam)
    if length(lam) > n:
        raise ShapeError("diagram has %d rows but only %d variables"
                         % (length(lam), n))
    th = as_fraction(theta)
    if th <= 0:
        raise ShapeError("particle locations need a positive rational theta")
    p, q = th.numerator, th.denominator
    padded = lam + (0,) * (n - len(lam))
    return [q * part - p * i for i, part in enumerate(padded)], p * n


def particle_locations(lam, n, theta):
    """y_i = lam_i/(theta n) - (i-1)/n for i = 1..n, strictly decreasing."""
    nums, den = particle_numerators(lam, n, theta)
    return [Fraction(a, den) for a in nums]


def interval_moments(lam, n, theta, count):
    """[m_1, ..., m_count] of the law that spreads mass 1/n uniformly on
    [y_i - 1/n, y_i] for each particle location y_i, a start's limit
    shape.  Adjacent locations lie at least 1/n apart, so the intervals
    never overlap, and the packed diagram gives the uniform law on
    [-1, 0].  In integers, with y_i = a_i/den, den = p n and theta = p/q:
    m_k = sum (a^(k+1) - (a - p)^(k+1)) / ((k+1) den^(k+1))."""
    nums, den = particle_numerators(lam, n, theta)
    p = as_fraction(theta).numerator
    return [Fraction(sum(a ** (k + 1) - (a - p) ** (k + 1) for a in nums),
                     (k + 1) * den ** (k + 1))
            for k in range(1, count + 1)]


def empirical_density(lam, n, theta=1):
    """Uniform weights 1/n on the particle locations of the diagram."""
    ys = particle_locations(lam, n, theta)
    w = Fraction(1, n)
    return AtomicMeasure([(y, w) for y in ys])


def pp_measure(lam, n, theta=1):
    """The reweighted particle measure.

    Atom i carries weight (1/n) prod_{j != i} (y_i - y_j + 1/n)/(y_i - y_j);
    the locations are strictly decreasing so no factor degenerates.  Its
    Stieltjes transform equals prod_i (1 + 1/(n(z - y_i))) - 1, which is the
    identity the moment conversions below expand.
    """
    ys = particle_locations(lam, n, theta)
    atoms = []
    for i, y in enumerate(ys):
        w = Fraction(1, n)
        for j, y2 in enumerate(ys):
            if j != i:
                w = w * (y - y2 + Fraction(1, n)) / (y - y2)
        atoms.append((y, w))
    return AtomicMeasure(atoms)


def _pp_series_from_empirical(c, n, order):
    """Expand prod(1 + 1/(n(z - y_i))) - 1 given empirical moments c.

    The product is the exp of sum_{i, r >= 1} (-1)^(r-1) (z - y_i)^(-r) /
    (r n^r), and the z^-K coefficient of sum_i (z - y_i)^(-r) is the power
    sum C(K-1, r-1) n c^(K-r), so the exponent's z^-K coefficient is

        E_K = (1/K) sum_{r=1..K} (-1)^(r-1) C(K, r) n^(1-r) c^(K-r),

    with c^(0) = 1 and the moments past c taken as 0.  No atom locations
    are needed.
    """
    if not n:  # no atoms: the empty product
        return TruncSeries.zero(ZVAR, order + 1)
    c = [Fraction(1)] + [as_exact(x) for x in c]
    while not c[-1]:  # a zero moment, even symbolic, counts as missing
        c.pop()
    c += [0] * (order - len(c))
    exponent = [sum(Fraction((-1) ** (r - 1) * math.comb(K, r),
                             K * n ** (r - 1)) * c[K - r]
                    for r in range(1, K + 1))
                for K in range(1, order + 1)]
    return TruncSeries(ZVAR, 1, exponent, order + 1).exp() - 1


def pp_moments_from_empirical(c, n, k):
    """k-th reweighted moment from the first k empirical moments.

    ``c`` lists the empirical moments c^(1)..c^(k) (order 0, the mass, is
    implicit).  The value is the 1/z^(k+1) coefficient of the perturbed
    Stieltjes product, expanded generically.
    """
    c = list(c)
    if len(c) < k:
        raise ShapeError("need %d empirical moments, got %d" % (k, len(c)))
    series = _pp_series_from_empirical(c[:k], n, k + 1)
    return series.coefficient(k + 1)


def empirical_moments_from_pp(c_pp, c_lower, n, k):
    """Invert the moment conversion at order k.

    ``c_pp`` lists reweighted moments through order k and ``c_lower`` the
    empirical moments through order k-1.  The conversion is unitriangular:
    the k-th reweighted moment is the k-th empirical one plus a polynomial
    in the lower ones, so one subtraction inverts it.
    """
    c_pp = list(c_pp)
    c_lower = list(c_lower)
    if len(c_pp) < k or len(c_lower) < k - 1:
        raise ShapeError("need %d reweighted and %d empirical moments"
                         % (k, k - 1))
    shifted = _pp_series_from_empirical(c_lower[:k - 1] + [0], n, k + 1)
    return c_pp[k - 1] - shifted.coefficient(k + 1)


class MeasureOnYoung:
    """A (possibly truncated) probability measure on diagrams with <= n rows.

    ``support`` maps partitions to weights; ``tail_deficit`` is the mass the
    truncation left out, kept explicit so downstream statistics can report
    contamination bounds instead of silently renormalizing.

    The constructor canonicalizes every key, checks it fits in n rows and
    drops zero weights; every measure, the walk's transition rows and
    pushforwards included, is built through it.
    """

    __slots__ = ("n", "support", "tail_deficit")

    def __init__(self, n, support, tail_deficit=0):
        self.n = n
        self.support = {}
        for lam, w in support.items():
            lam = make_partition(lam)
            if length(lam) > n:
                raise ShapeError("supported diagram %s has more than %d rows"
                                 % (lam, n))
            if not is_zero(w):
                self.support[lam] = as_exact(w)
        self.tail_deficit = as_exact(tail_deficit)

    def weight(self, lam):
        return self.support.get(make_partition(lam), Fraction(0))

    def total_mass(self):
        return sum(self.support.values(), Fraction(0)) + self.tail_deficit

    def map_expectation(self, fn):
        """Sum of weight(lam) * fn(lam) over the support."""
        total = 0
        for lam, w in self.support.items():
            total = total + w * fn(lam)
        return total

    def __repr__(self):
        return ("MeasureOnYoung(n=%d, %d atoms, deficit=%s)"
                % (self.n, len(self.support), self.tail_deficit))


def jack_measure(rho1, rho2, theta, n, max_size):
    """Random diagram with weight J_lam(rho1) J_lam(rho2) / (j_lam H).

    Weights are computed for |lam| <= max_size and at most n rows; whatever
    mass lies beyond goes into the tail deficit.  H is the reproducing
    kernel of the pair, so the full weights sum to one.
    """
    th = as_exact(theta)
    kernel = reproducing_kernel(rho1, rho2, th)
    bas = basis_for(th)
    support = {}
    total = 0
    for lam in enumerate_all_partitions(max_size):
        if length(lam) > n:
            continue
        poly = bas.polynomial(lam)
        w = specialize(poly, rho1, th) * specialize(poly, rho2, th) \
            / (bas.norm(lam) * kernel)
        if not is_zero(w):
            support[lam] = w
            total = total + w
    return MeasureOnYoung(n, support, 1 - total)


def generating_function(measure, theta=THETA):
    """sum_lam M(lam) J_lam(p; theta) / J_lam(1^n; theta) as a PSumPoly.

    Evaluating the result at p = 1^n returns the computed mass
    1 - tail_deficit; on a full measure this is exactly 1.
    """
    th = as_exact(theta)
    out = PSumPoly.zero()
    for lam, w in measure.support.items():
        pv = principal_value(lam, measure.n, th)
        if is_zero(pv):
            raise ZeroDivisionError(
                "diagram %s has vanishing value at 1^%d" % (lam, measure.n))
        out = out + jack_polynomial(lam, th) * (w / pv)
    return out


#: thetas with proven nonnegativity of the product-expansion coefficients
POSITIVE_THETAS = (Fraction(1, 2), Fraction(1), Fraction(2))


def lr_measure(mu, eta, n, theta=1):
    """Random diagram from the expansion of J_mu J_eta, scaled at 1^n.

    Weight of lam is c^{mu eta}_lam * J_lam(1^n) / (J_mu(1^n) J_eta(1^n)).
    Evaluating the product expansion at 1^n shows the weights sum to one
    exactly; diagrams with more than n rows contribute nothing because
    their principal value vanishes.
    """
    mu = make_partition(mu)
    eta = make_partition(eta)
    if length(mu) > n or length(eta) > n:
        raise ShapeError("factors must fit in %d rows" % n)
    th = as_exact(theta)
    if not any(th == good for good in POSITIVE_THETAS):
        warnings.warn("weight positivity is unproven at theta=%r" % (th,),
                      stacklevel=2)
    denom = principal_value(mu, n, th) * principal_value(eta, n, th)
    support = {}
    for lam, c in lr_expand(mu, eta, th).items():
        if length(lam) > n:
            continue
        w = c * principal_value(lam, n, th) / denom
        if not is_zero(w):
            support[lam] = w
    return MeasureOnYoung(n, support, 0)
