"""Jack symmetric functions: basis tables, norms, specializations, skews.

The basis J_lambda(theta) used throughout the package is the *monic* one:
expanded over monomial symmetric functions, J_lambda = m_lambda + (lower
terms in dominance order).  Together with orthogonality under the deformed
Hall pairing <p_lam, p_mu> = delta * z_lam * theta^(-len(lam)) this pins the
basis uniquely, and at theta = 1 it reduces to the Schur functions.

Construction is Gram-Schmidt over a size class processed along a linear
extension of dominance order (least dominant first), starting each row from
the monomial symmetric function and subtracting projections onto the rows
already built.  Tables are memoized per theta; the symbolic table doubles as
a source for every fixed theta by substitution, so the expensive elimination
runs at most once per size class.

Everything here is exact.  The only operation that ever approximates is
:func:`reproducing_kernel` on inputs whose closed form is irrational, and
there the caller gets a Fraction within a stated tolerance.
"""

import itertools
import math
import threading
from fractions import Fraction

from .errors import DivergenceError, ResourceLimitError, ShapeError
from .partitions import (arm, boxes, conjugate, contains, dominance_leq,
                         enumerate_partitions, leg, length, make_partition,
                         weight)
from .psum import (CONVERSION_SIZE_CUTOFF, PSumPoly, monomial_expansion,
                   monomial_to_psum, scalar_product)
from .scalars import (THETA, RationalFunction, as_exact, is_zero,
                      substitute_theta)

__all__ = [
    "JackBasis", "basis_for", "jack_polynomial", "jack_norm",
    "principal_value", "skew_jack", "lr_expand", "reproducing_kernel",
    "branching_weight", "horizontal_strip_predecessors",
    "log_derivative_at_unity", "KERNEL_TOLERANCE",
]


def _is_symbolic(theta):
    return isinstance(theta, RationalFunction) and not theta.is_constant()


class JackBasis:
    """Memoized expansion tables {partition: PSumPoly} for one theta.

    Completed size classes are immutable; construction of a class holds a
    lock so concurrent readers either see the finished table or build it
    exactly once.
    """

    def __init__(self, theta=THETA, _source=None):
        self.theta = as_exact(theta)
        self._source = _source          # symbolic basis to substitute from
        self._lock = threading.Lock()
        self._table = {}                # partition -> PSumPoly
        self._norms = {}                # partition -> <J, J>
        self._done = set()              # completed sizes

    # -- public reads --------------------------------------------------------

    def polynomial(self, lam):
        lam = make_partition(lam)
        self.ensure_size(weight(lam))
        return self._table[lam]

    def norm(self, lam):
        """The computed squared norm <J_lam, J_lam>."""
        lam = make_partition(lam)
        self.ensure_size(weight(lam))
        return self._norms[lam]

    def size_table(self, size):
        """All expansions of one size class as {partition: PSumPoly}."""
        self.ensure_size(size)
        return {lam: self._table[lam]
                for lam in enumerate_partitions(size)}

    # -- construction --------------------------------------------------------

    def ensure_size(self, size):
        if size in self._done:
            return
        with self._lock:
            if size in self._done:
                return
            if size > CONVERSION_SIZE_CUTOFF:
                raise ResourceLimitError(
                    "Jack table refused at size %d (cutoff %d)"
                    % (size, CONVERSION_SIZE_CUTOFF))
            if self._source is not None:
                self._build_by_substitution(size)
            else:
                self._build_by_elimination(size)
            self._done.add(size)

    def _build_by_elimination(self, size):
        built = []
        # enumerate_partitions lists the most dominant first; process in the
        # opposite order so every projection target already exists.
        for lam in reversed(list(enumerate_partitions(size))):
            f = monomial_to_psum(lam)
            for mu in built:
                c = scalar_product(f, self._table[mu], self.theta)
                if not is_zero(c):
                    f = f - self._table[mu] * (c / self._norms[mu])
            nrm = scalar_product(f, f, self.theta)
            if is_zero(nrm):
                raise ZeroDivisionError(
                    "squared norm of J_%s vanishes at theta=%r"
                    % (lam, self.theta))
            self._table[lam] = f
            self._norms[lam] = nrm
            built.append(lam)
        if __debug__ and size <= 8:
            for lam in built:
                expansion = monomial_expansion(self._table[lam])
                assert expansion.get(lam) == 1
                assert all(dominance_leq(mu, lam) for mu in expansion)

    def _build_by_substitution(self, size):
        self._source.ensure_size(size)
        th = self.theta
        for lam in enumerate_partitions(size):
            poly = self._source._table[lam]
            self._table[lam] = PSumPoly(
                {key: substitute_theta(c, th) for key, c in poly.terms.items()})
            nrm = substitute_theta(self._source._norms[lam], th)
            if is_zero(nrm):
                raise ZeroDivisionError(
                    "squared norm of J_%s vanishes at theta=%r" % (lam, th))
            self._norms[lam] = nrm


_BASES = {}
_BASES_LOCK = threading.Lock()


def basis_for(theta=THETA):
    """The shared JackBasis for this theta (tables are the dominant cost)."""
    key = as_exact(theta)
    if isinstance(key, RationalFunction) and key.is_constant():
        key = key.as_fraction()
    with _BASES_LOCK:
        found = _BASES.get(key)
        if found is None:
            if _is_symbolic(key):
                found = JackBasis(key)
            else:
                sym = _BASES.get(THETA)
                if sym is None:
                    sym = _BASES[THETA] = JackBasis(THETA)
                found = JackBasis(key, _source=sym)
            _BASES[key] = found
    return found


def jack_polynomial(lam, theta=THETA):
    """Expansion of J_lam over power sums, monic in the monomial basis."""
    return basis_for(theta).polynomial(lam)


def jack_norm(lam, theta=THETA):
    """Squared norm <J_lam, J_lam> by the hook product formula.

    Each box contributes (a + theta*l + 1)/(a + theta*l + theta) with a, l
    the arm and leg lengths.  Agreement with the Gram matrix of the computed
    basis is part of the test suite.
    """
    lam = make_partition(lam)
    th = as_exact(theta)
    value = Fraction(1)
    for (i, j) in boxes(lam):
        a = arm(lam, i, j)
        l = leg(lam, i, j)
        value = value * (a + th * l + 1) / (a + th * l + th)
    return value


def principal_value(lam, n, theta=THETA):
    """Evaluation of J_lam at x_1 = ... = x_n = 1 in closed form.

    For the monic basis each box (i, j) contributes
    (n - (i-1) + (j-1)/theta) / (a/theta + l + 1); the value vanishes exactly
    when the diagram has more than n rows.  Equality with
    specialize(jack_polynomial(lam, theta), ones(n)) is a test obligation.
    """
    lam = make_partition(lam)
    if n < 0:
        raise ShapeError("negative variable count: %d" % n)
    if length(lam) > n:
        return Fraction(0)
    th = as_exact(theta)
    inv = 1 / th
    value = Fraction(1)
    for (i, j) in boxes(lam):
        a = arm(lam, i, j)
        l = leg(lam, i, j)
        value = value * (n - (i - 1) + (j - 1) * inv) / (a * inv + l + 1)
    return value


def skew_jack(lam, mu, theta=THETA):
    """The skew element J_{lam/mu} = sum_nu <J_lam, J_mu J_nu>/(j_mu j_nu) J_nu.

    Returns the zero polynomial for incompatible shapes (mu not contained in
    lam), so transition-matrix code may sum over candidate mu uniformly.
    """
    lam = make_partition(lam)
    mu = make_partition(mu)
    d = weight(lam) - weight(mu)
    if d < 0 or not contains(lam, mu):
        return PSumPoly.zero()
    bas = basis_for(theta)
    j_lam_poly = bas.polynomial(lam)
    j_mu_poly = bas.polynomial(mu)
    inv_j_mu = 1 / bas.norm(mu)
    out = PSumPoly.zero()
    for nu in enumerate_partitions(d):
        c = scalar_product(j_lam_poly, j_mu_poly * bas.polynomial(nu),
                           bas.theta)
        if not is_zero(c):
            out = out + bas.polynomial(nu) * (c * inv_j_mu / bas.norm(nu))
    return out


def lr_expand(mu, eta, theta=THETA):
    """Structure constants of J_mu * J_eta = sum_lam c_lam J_lam.

    Returns {lam: c_lam} over |lam| = |mu| + |eta|, zero coefficients
    omitted.  c_lam = <J_mu J_eta, J_lam> / <J_lam, J_lam>.
    """
    mu = make_partition(mu)
    eta = make_partition(eta)
    bas = basis_for(theta)
    product = bas.polynomial(mu) * bas.polynomial(eta)
    out = {}
    for lam in enumerate_partitions(weight(mu) + weight(eta)):
        c = scalar_product(product, bas.polynomial(lam), bas.theta)
        if not is_zero(c):
            out[lam] = c / bas.norm(lam)
    return out


# ---------------------------------------------------------------------------
# reproducing kernel
# ---------------------------------------------------------------------------

#: default absolute tolerance for irrational kernel values
KERNEL_TOLERANCE = Fraction(1, 2 ** 64)

_DENOM_GUARD = 2 ** 192


def _components(rho):
    return getattr(rho, "components", (rho,))


def _ln2(eps):
    # ln 2 = 2 * atanh(1/3)
    return _atanh(Fraction(1, 3), eps / 2) * 2


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


def _ln_fraction(x, eps):
    """ln(x) for a positive Fraction, absolute error below eps."""
    if x <= 0:
        raise DivergenceError("log of a non-positive kernel factor")
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


def _kernel_factors(rho, sigma, theta):
    """Decompose the kernel exponent into closed-form factors.

    Returns (factors, linear) where factors is a list of (base, exponent)
    pairs, base a Fraction, and linear is the part of the exponent that stays
    rational (the degree-one cross terms).  The exponent of each factor is
    exact; divergent inputs raise here.
    """
    factors = []
    linear = 0
    for ca in _components(rho):
        for cb in _components(sigma):
            m = ca.scale * cb.scale
            if m == 0:
                continue
            for a in ca.alphas:
                for a2 in cb.alphas:
                    if a * a2 >= 1:
                        raise DivergenceError(
                            "alpha pair %s * %s outside the unit disc"
                            % (a, a2))
                    if a * a2:
                        factors.append((1 - a * a2, -theta * m))
            for a, b in itertools.chain(
                    itertools.product(ca.alphas, cb.betas),
                    itertools.product(ca.betas, cb.alphas)):
                # cross pairs contribute the polynomial factor (1 + theta*a*b):
                # the bilinear sum truncates (a beta atom caps column heights,
                # an alpha atom caps row counts), so no divergence is possible
                t = theta * a * b
                if t:
                    factors.append((1 + t, m))
            for b in ca.betas:
                for b2 in cb.betas:
                    t = theta * theta * b * b2
                    if t >= 1:
                        raise DivergenceError(
                            "beta pair %s * %s outside the unit disc"
                            % (b, b2))
                    if t:
                        factors.append((1 - t, -m / theta))
            p1a = ca.gamma + sum(ca.alphas) + sum(ca.betas)
            p1b = cb.gamma + sum(cb.alphas) + sum(cb.betas)
            cross = ca.gamma * p1b + cb.gamma * p1a - ca.gamma * cb.gamma
            linear = linear + theta * m * cross
    return factors, linear


def _symbolic_kernel(rho, sigma, theta):
    value = 1
    for ca in _components(rho):
        for cb in _components(sigma):
            m = ca.scale * cb.scale
            if m == 0:
                continue
            if any(a and a2 for a in ca.alphas for a2 in cb.alphas):
                raise ValueError(
                    "kernel with alpha-alpha pairs needs a numeric theta")
            if any(b and b2 for b in ca.betas for b2 in cb.betas):
                raise ValueError(
                    "kernel with beta-beta pairs needs a numeric theta")
            p1a = ca.gamma + sum(ca.alphas) + sum(ca.betas)
            p1b = cb.gamma + sum(cb.alphas) + sum(cb.betas)
            if ca.gamma * p1b + cb.gamma * p1a - ca.gamma * cb.gamma != 0:
                raise ValueError(
                    "kernel with a gamma part needs a numeric theta")
            pairs = [(a, b) for a, b in itertools.chain(
                itertools.product(ca.alphas, cb.betas),
                itertools.product(ca.betas, cb.alphas)) if a * b]
            if pairs and m.denominator != 1:
                raise ValueError(
                    "fractional pair weight %s needs a numeric theta" % m)
            for a, b in pairs:
                value = value * (1 + theta * a * b) ** int(m)
    return value


def reproducing_kernel(rho, sigma, theta=THETA, tolerance=KERNEL_TOLERANCE):
    """H(rho, sigma; theta) = exp(theta * sum_n p_n(rho) p_n(sigma) / n).

    The sum telescopes into a product of binomial factors plus one genuinely
    exponential piece from the degree-one cross terms.  When every factor is
    rational (integer exponents, vanishing exponential piece) the value is
    exact; otherwise it is approximated by elementary series whose remainders
    are driven below ``tolerance`` (absolute, for values of moderate size).

    Raises DivergenceError when the defining sum does not converge (an
    alpha-alpha or beta-beta pair at or beyond the unit radius); alpha-beta
    cross pairs never diverge.  Symbolic theta is supported only for the
    purely rational cases.
    """
    th = as_exact(theta)
    if _is_symbolic(th):
        return _symbolic_kernel(rho, sigma, th)
    factors, linear = _kernel_factors(rho, sigma, th)
    if linear == 0 and all(e.denominator == 1 for _, e in factors):
        value = Fraction(1)
        for base, e in factors:
            value = value * base ** int(e)
        return value
    work = tolerance / (8 * (len(factors) + 2))
    exponent = Fraction(linear)
    for base, e in factors:
        scale = max(1, math.ceil(abs(e)))
        exponent = exponent + e * _ln_fraction(base, work / scale)
    return _exp_fraction(exponent, tolerance / 4)


# ---------------------------------------------------------------------------
# branching along horizontal strips
# ---------------------------------------------------------------------------

def horizontal_strip_predecessors(lam):
    """All mu contained in lam with lam/mu a horizontal strip.

    These are exactly the interlacing shapes lam_{i+1} <= mu_i <= lam_i.
    """
    lam = make_partition(lam)
    padded = lam + (0,)
    ranges = [range(padded[i + 1], padded[i] + 1) for i in range(len(lam))]
    for choice in itertools.product(*ranges):
        yield make_partition(choice)


def branching_weight(lam, mu, theta=THETA):
    """Coefficient of x^{|lam/mu|} in the one-variable skew J_{lam/mu}(x).

    Nonzero exactly when lam/mu is a horizontal strip: the product over
    boxes of mu in rows the strip meets but columns it misses of
    b_mu(s)/b_lam(s), with b_shape(s) = (a + theta*l + theta)/(a + theta*l + 1).
    At theta = 1 every weight is 1.  Validated against the inner-product
    skew expansion in the test suite.
    """
    lam = make_partition(lam)
    mu = make_partition(mu)
    if not contains(lam, mu):
        return Fraction(0)
    padded = mu + (0,) * (len(lam) - len(mu))
    if any(padded[i] < lam[i + 1] for i in range(len(lam) - 1)):
        return Fraction(0)          # not a horizontal strip
    th = as_exact(theta)
    rows = {i + 1 for i in range(len(lam)) if lam[i] > padded[i]}
    lam_c = conjugate(lam)
    mu_c = conjugate(mu)
    mu_c_pad = mu_c + (0,) * (len(lam_c) - len(mu_c))
    cols = {j + 1 for j in range(len(lam_c)) if lam_c[j] > mu_c_pad[j]}
    value = Fraction(1)
    for (i, j) in boxes(mu):
        if i not in rows or j in cols:
            continue
        num_mu = arm(mu, i, j) + th * leg(mu, i, j)
        num_lam = arm(lam, i, j) + th * leg(lam, i, j)
        value = value * ((num_mu + th) / (num_mu + 1)) \
            * ((num_lam + 1) / (num_lam + th))
    return value


# ---------------------------------------------------------------------------
# finite-N logarithmic derivatives
# ---------------------------------------------------------------------------

def _restriction_poly(lam, nvars, remaining_ones, theta):
    """J_lam(x_1..x_nvars, 1^remaining_ones) as {exponent tuple: coeff}.

    Peels one variable per level through the horizontal-strip branching rule,
    which keeps the cost polynomial in |lam| for a bounded number of
    distinguished variables (the full monomial expansion would not be).
    """
    cache = {}

    def rec(mu, level):
        if level > nvars:
            return {(): principal_value(mu, remaining_ones, theta)}
        key = (mu, level)
        found = cache.get(key)
        if found is not None:
            return found
        out = {}
        for nu in horizontal_strip_predecessors(mu):
            w = branching_weight(mu, nu, theta)
            if is_zero(w):
                continue
            step = weight(mu) - weight(nu)
            for tail, c in rec(nu, level + 1).items():
                key2 = (step,) + tail
                prior = out.get(key2)
                value = w * c if prior is None else prior + w * c
                out[key2] = value
        out = {k: v for k, v in out.items() if not is_zero(v)}
        cache[key] = out
        return out

    return rec(make_partition(lam), 1)


def _shifted_truncation(poly, caps):
    """Substitute x_v = 1 + t_v and truncate t_v at caps[v]."""
    out = {}
    for exps, coeff in poly.items():
        spans = [range(min(e, cap) + 1) for e, cap in zip(exps, caps)]
        for rs in itertools.product(*spans):
            binom = 1
            for e, r in zip(exps, rs):
                binom *= math.comb(e, r)
            prior = out.get(rs)
            value = coeff * binom if prior is None else prior + coeff * binom
            out[rs] = value
    return {k: v for k, v in out.items() if not is_zero(v)}


def _mul_truncated(a, b, caps):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if any(x > cap for x, cap in zip(e, caps)):
                continue
            prior = out.get(e)
            value = ca * cb if prior is None else prior + ca * cb
            out[e] = value
    return {k: v for k, v in out.items() if not is_zero(v)}


def log_derivative_at_unity(lam, n, theta, orders):
    """Mixed partial of ln(J_lam(x; theta) / J_lam(1^n; theta)) at x = 1^n.

    ``orders`` lists (variable index, exponent) pairs with 1-based indices;
    repeated indices accumulate.  By symmetry only the multiset of per-
    variable exponents matters, so the work is done in as many genuine
    variables as the request distinguishes, each obtained by branching off
    one variable at a time rather than via a full monomial expansion.
    """
    lam = make_partition(lam)
    th = as_exact(theta)
    per_var = {}
    for idx, k in orders:
        if idx < 1 or idx > n:
            raise ShapeError("variable index %d outside 1..%d" % (idx, n))
        if k < 0:
            raise ShapeError("negative derivative order %d" % k)
        if k:
            per_var[idx] = per_var.get(idx, 0) + k
    if weight(lam) == 0 or not per_var:
        return Fraction(0)
    if length(lam) > n:
        raise ShapeError(
            "diagram with %d rows has no values on %d variables"
            % (length(lam), n))
    caps = tuple(per_var[idx] for idx in sorted(per_var))
    nvars = len(caps)
    if nvars > n:
        raise ShapeError("more distinguished variables than variables")
    poly = _restriction_poly(lam, nvars, n - nvars, th)
    center = principal_value(lam, n, th)
    shifted = _shifted_truncation(poly, caps)
    inv_center = 1 / center
    h = {k: v * inv_center for k, v in shifted.items()}
    origin = (0,) * nvars
    h[origin] = h.get(origin, Fraction(1)) - 1
    h = {k: v for k, v in h.items() if not is_zero(v)}
    # ln(1 + h) truncated; h has no constant term so the sum is finite
    result = 0
    power = h
    sign = 1
    for m in range(1, sum(caps) + 1):
        if not power:
            break
        term = power.get(caps)
        if term is not None:
            result = result + term * Fraction(sign, m)
        power = _mul_truncated(power, h, caps)
        sign = -sign
    for cap in caps:
        result = result * math.factorial(cap)
    return result
