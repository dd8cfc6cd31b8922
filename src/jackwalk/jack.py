"""Jack symmetric functions: basis tables, norms, specializations, skews.

The basis J_lambda(theta) used throughout the package is the *monic* one:
expanded over monomial symmetric functions, J_lambda = m_lambda + (lower
terms in dominance order).  Together with orthogonality under the deformed
Hall pairing <p_lam, p_mu> = delta * z_lam * theta^(-len(lam)) this pins the
basis uniquely, and at theta = 1 it reduces to the Schur functions.

Construction follows the Laplace-Beltrami (Sekiguchi) operator, which has
the J_lambda as eigenfunctions and acts triangularly on monomials (Stanley,
Adv. Math. 77, 1989; Demmel and Koev, Math. Comp. 75, 2006).  With
rho_mu = sum_i mu_i (mu_i - 1 - 2 theta (i - 1)), the monomial coefficients
of J_lambda = sum_mu c_mu m_mu are c_lambda = 1 and, for mu after lambda in
``enumerate_partitions`` order,

    c_mu = 2 theta / (rho_lambda - rho_mu) * sum (mu_i - mu_j + 2t) c_nu,

over positions i < j of mu and 1 <= t <= mu_j, with nu = sort(mu + t e_i
- t e_j) (a raising, more dominant than mu).  The recursion runs in
integral form: with theta = P/Q over Z at a numeric theta and over Z[theta]
otherwise, E c_mu is in the ring for E = prod over boxes of
Q a + P (l + 1) (Knop and Sahi, Invent. Math. 128, 1997), so every step is
an exact division by Q rho_lambda / 2 - Q rho_mu / 2 and no gcd is taken.
The power-sum coefficients are one integer dot product per term with the
class's table ``psum.monomial_numerators``, reduced once.  Norms are the
closed form :func:`jack_norm`; a vanishing rho_lambda - rho_mu or norm (a
singular negative theta) raises ZeroDivisionError.  Tables are memoized per
theta, and symbolic and fixed theta share this one construction;
Gram-Schmidt is the test oracle, and so is the Gram matrix of the tables.

Everything here is exact.  The only operation that ever approximates is
:func:`reproducing_kernel` on inputs whose closed form is irrational, at
a numeric theta: it evaluates one exp of a sum of logarithms in
``decimal`` and returns a Fraction within relative ``KERNEL_TOLERANCE``.
"""

import decimal
import itertools
import math
from fractions import Fraction

from .errors import DivergenceError, ResourceLimitError, ShapeError
from .partitions import (arm, boxes, conjugate, contains,
                         enumerate_partitions, leg, length, make_partition,
                         weight)
from .psum import (CONVERSION_SIZE_CUTOFF, PSumPoly, d_dp, from_numerators,
                   monomial_numerators, monomial_to_psum, scalar_product)
from .scalars import THETA, RationalFunction, _Ring, as_exact, is_zero

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

    A size class is built whole, on its first read, and never changes
    after; `basis_for` shares one basis per theta within a process.
    """

    def __init__(self, theta=THETA):
        self.theta = as_exact(theta)
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

    # -- construction --------------------------------------------------------

    def ensure_size(self, size):
        if size in self._done:
            return
        if size > CONVERSION_SIZE_CUTOFF:
            raise ResourceLimitError(
                "Jack table refused at size %d (cutoff %d)"
                % (size, CONVERSION_SIZE_CUTOFF))
        self._build(size)
        self._done.add(size)

    def _build(self, size):
        """One size class by the Laplace-Beltrami recursion, in integral
        form over Z (numeric theta = P/Q) or Z[theta]: see the module
        docstring."""
        ring = _Ring(self.theta)
        add, mul, const, P, Q = ring.add, ring.mul, ring.const, ring.P, ring.Q
        order = list(enumerate_partitions(size))
        raisings = {mu: _raisings(mu) for mu in order}
        # r_mu = Q n(mu') - P n(mu) is Q rho_mu / 2
        r = {mu: ring.sub(mul(const(_n(conjugate(mu))), Q),
                          mul(const(_n(mu)), P)) for mu in order}
        mono_den, mono = monomial_numerators(size)
        for at, lam in enumerate(order):
            norm = jack_norm(lam, self.theta)
            if is_zero(norm):
                raise ZeroDivisionError(
                    "squared norm of J_%s vanishes at theta=%r"
                    % (lam, self.theta))
            # numerators of the monomial coefficients over the hook
            # product E = prod (Q a + P (l + 1)), all in the ring
            den = const(1)
            for (i, j) in boxes(lam):
                den = mul(den, add(mul(const(arm(lam, i, j)), Q),
                                   mul(const(leg(lam, i, j) + 1), P)))
            coeffs = {lam: den}
            for mu in order[at + 1:]:
                total = const(0)
                for nu, w in raisings[mu].items():
                    c = coeffs.get(nu)
                    if c is not None:
                        total = add(total, mul(const(w), c))
                gap = ring.sub(r[lam], r[mu])
                if not gap and (total or _dominates(lam, mu)):
                    raise ZeroDivisionError(
                        "rho_%s = rho_%s at theta=%r" % (lam, mu, self.theta))
                if total:
                    coeffs[mu] = ring.quo(mul(P, total), gap)
            if len(coeffs) == 1:    # J_lam = m_lam, Fractions as tabled
                row = monomial_to_psum(lam)
            else:
                sums = {}
                for mu, c in coeffs.items():
                    for kappa, m in mono[mu]:
                        acc = sums.get(kappa)
                        term = mul(const(m), c)
                        sums[kappa] = term if acc is None else add(acc, term)
                row = from_numerators(sums, mul(den, const(mono_den)), ring)
            self._table[lam] = row
            self._norms[lam] = norm


def _n(mu):
    """n(mu) = sum (i - 1) mu_i."""
    return sum(i * part for i, part in enumerate(mu))


def _dominates(lam, mu):
    """lam >= mu in dominance order, for partitions of one size."""
    return all(a >= b for a, b in zip(itertools.accumulate(lam),
                                      itertools.accumulate(mu)))


def _raisings(mu):
    """{nu: weight}: the monomials the Laplace-Beltrami operator sends m_mu
    to besides m_mu itself.  For positions i < j of mu and 1 <= t <= mu_j,
    nu = sort(mu + t e_i - t e_j) gains mu_i - mu_j + 2t."""
    out = {}
    for j in range(1, len(mu)):
        for i in range(j):
            for t in range(1, mu[j] + 1):
                parts = list(mu)
                parts[i] += t
                parts[j] -= t
                nu = tuple(sorted((p for p in parts if p), reverse=True))
                out[nu] = out.get(nu, 0) + mu[i] - mu[j] + 2 * t
    return out


_BASES = {}


def basis_for(theta=THETA):
    """The shared JackBasis for this theta (tables are the dominant cost)."""
    key = as_exact(theta)
    if isinstance(key, RationalFunction) and key.is_constant():
        key = key.as_fraction()
    found = _BASES.get(key)
    if found is None:
        found = _BASES[key] = JackBasis(key)
    return found


def jack_polynomial(lam, theta=THETA):
    """Expansion of J_lam over power sums, monic in the monomial basis."""
    return basis_for(theta).polynomial(lam)


def jack_norm(lam, theta=THETA):
    """Squared norm <J_lam, J_lam> by the hook product formula.

    Each box contributes (a + theta*l + 1)/(a + theta*l + theta) with a, l
    the arm and leg lengths.  The tables take their norms from here;
    agreement with the Gram matrix of the computed basis is part of the
    test suite.
    """
    lam = make_partition(lam)
    th = as_exact(theta)
    value = th ** 0     # 1, in the scalars of theta
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
    """The skew element J_{lam/mu} = J_mu^perp J_lam / j_mu, with J_mu^perp
    the adjoint of multiplication by J_mu: for J_mu = sum c_kappa p_kappa
    it is sum c_kappa prod_{k in kappa} (k/theta) d/dp_k, since
    p_k^perp = (k/theta) d/dp_k under the deformed Hall pairing.  Its
    coefficient on J_nu is <J_lam, J_mu J_nu>/(j_mu j_nu), and no table of
    size |lam/mu| is needed.

    Returns the zero polynomial for incompatible shapes (mu not contained in
    lam).
    """
    lam = make_partition(lam)
    mu = make_partition(mu)
    if not contains(lam, mu):
        return PSumPoly.zero()
    bas = basis_for(theta)
    out = PSumPoly.zero()
    for kappa, c in bas.polynomial(mu).terms.items():
        f = bas.polynomial(lam)
        for k in kappa:
            f = d_dp(f, k)
        out = out + f * (c * math.prod(kappa) / bas.theta ** len(kappa))
    return out * (1 / bas.norm(mu))


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

#: relative tolerance for irrational kernel values: H >= 1 for positive
#: specializations, and the returned Fraction is within H * KERNEL_TOLERANCE
KERNEL_TOLERANCE = Fraction(1, 2 ** 64)

#: decimal digits carried by the exponent and its exp
_KERNEL_DIGITS = 50


def _kernel_factors(rho, sigma, theta):
    """Decompose the kernel exponent into closed-form factors.

    Returns (factors, linear) where factors is a list of (base, exponent)
    pairs, one per distinct base with the exponents of its atom pairs
    summed (so alpha against 1^N is one factor of exponent -theta N), and
    linear is the part of the exponent that stays rational (the
    degree-one cross terms).  The exponent of each factor is exact;
    divergent inputs raise here, and so does a beta-beta pair at a
    symbolic theta, whose radius theta^2 b b' < 1 cannot be decided.
    """
    symbolic = _is_symbolic(theta)
    factors = []
    linear = 0
    for ca in rho.components:
        for cb in sigma.components:
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
                    if not b * b2:
                        continue
                    if symbolic:
                        raise ValueError(
                            "kernel with beta-beta pairs needs a numeric theta")
                    t = theta * theta * b * b2
                    if t >= 1:
                        raise DivergenceError(
                            "beta pair %s * %s outside the unit disc"
                            % (b, b2))
                    factors.append((1 - t, -m / theta))
            p1a = ca.gamma + sum(ca.alphas) + sum(ca.betas)
            p1b = cb.gamma + sum(cb.alphas) + sum(cb.betas)
            cross = ca.gamma * p1b + cb.gamma * p1a - ca.gamma * cb.gamma
            linear = linear + theta * m * cross
    merged = {}
    for base, e in factors:
        merged[base] = merged.get(base, 0) + e
    return [(base, e) for base, e in merged.items() if not is_zero(e)], linear


def reproducing_kernel(rho, sigma, theta=THETA):
    """H(rho, sigma; theta) = exp(theta * sum_n p_n(rho) p_n(sigma) / n).

    The sum telescopes into a product of binomial factors plus one genuinely
    exponential piece from the degree-one cross terms.  When every factor is
    rational (integer exponents, vanishing exponential piece) the value is
    exact, a Fraction, or a RationalFunction at a symbolic theta.  Otherwise
    theta must be numeric, and H = exp(linear + sum e ln base) is computed
    in decimal and returned as a Fraction within relative
    ``KERNEL_TOLERANCE``.

    Raises DivergenceError when the defining sum does not converge (an
    alpha-alpha or beta-beta pair at or beyond the unit radius); alpha-beta
    cross pairs never diverge.  Raises ValueError for an irrational kernel
    at a symbolic theta, and ResourceLimitError when H exceeds decimal's
    exponent range.
    """
    th = as_exact(theta)
    factors, linear = _kernel_factors(rho, sigma, th)
    if not linear and all(isinstance(e, Fraction) and e.denominator == 1
                          for _, e in factors):
        value = Fraction(1)
        for base, e in factors:
            value = value * base ** int(e)
        return value
    if _is_symbolic(th):
        raise ValueError(
            "kernel with an irrational factor needs a numeric theta")
    # Every decimal operation below is correctly rounded to _KERNEL_DIGITS
    # digits, every term of the exponent X is nonnegative, and exp leaves
    # decimal's default exponent range (Emax 999999) unless X < 2.3e6.  So
    # X carries an absolute error far below 10^-40, which is also the
    # relative error of H = exp(X), far below KERNEL_TOLERANCE = 2^-64.
    with decimal.localcontext(decimal.Context(prec=_KERNEL_DIGITS)):
        exponent = _decimal(linear)
        for base, e in factors:
            exponent += _decimal(e) * _decimal(base).ln()
        try:
            return Fraction(exponent.exp())
        except decimal.Overflow:
            raise ResourceLimitError(
                "kernel exp(%.6g) exceeds decimal's exponent range"
                % exponent) from None


def _decimal(x):
    """A Fraction rounded to the current decimal context."""
    x = Fraction(x)
    return decimal.Decimal(x.numerator) / x.denominator


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
