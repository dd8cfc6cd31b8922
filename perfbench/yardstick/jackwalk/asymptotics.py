"""Limit formulas: LLN moments, CLT covariances, and transform machinery.

Conventions used throughout:

* ``U`` is a one-variable series expanded about 1, stored in the shifted
  variable tag ``"z-1"`` (exponent ``j`` means ``(z-1)^j``).
* ``V`` is a two-variable series about (1,1), stored shifted as well: a
  series in ``"w"`` whose coefficients are series in ``"z"``, with exponent
  ``(i, j)`` meaning ``(z-1)^i (w-1)^j``.  This shifted form is exactly what
  the covariance extractors consume, so no recentering ever happens.
* Stieltjes-type data lives in the reciprocal variable tag ``"1/z"``:
  exponent ``n`` means ``z^(-n)``.  A probability measure has leading
  coefficient 1 at exponent 1.

All residues are coefficient extractions on truncated Laurent series; an
insufficient truncation surfaces as ``OrderError``.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import OrderError, StabilityError
from .series import (ORDER_INF, TruncSeries, _coeff_inv, geometric_alternating,
                     revert)

SHIFT_VAR = "z-1"


def default_order(ks):
    """Working truncation order for requested moment indices `ks`."""
    return 2 * max(ks) + 4


def with_order_retry(fn, order):
    """Run fn(order); on an order error retry once at doubled order."""
    try:
        return fn(order)
    except OrderError:
        return fn(2 * order)


# ---------------------------------------------------------------------------
# Limit data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitData:
    """First- and second-order limit coefficients.

    `cks[k-1]` is the k-th drift coefficient (k >= 1); `dkls` maps pairs
    (k, l) to the symmetric second-order coefficients; `order` bounds the
    indices that are present.
    """

    cks: tuple
    dkls: dict
    order: int

    def __post_init__(self):
        object.__setattr__(self, "cks", tuple(self.cks))
        full = {}
        for (k, l), v in dict(self.dkls).items():
            if k < 1 or l < 1:
                raise ValueError("second-order indices start at 1")
            for key in ((k, l), (l, k)):
                if key in full and full[key] != v:
                    raise ValueError("asymmetric second-order data at %s" %
                                     (key,))
                full[key] = v
        object.__setattr__(self, "dkls", full)

    def ck(self, k):
        if k - 1 < len(self.cks):
            return self.cks[k - 1]
        if k <= self.order:
            return 0
        raise OrderError("drift coefficient %d beyond order %d" %
                         (k, self.order))

    def dkl(self, k, l):
        if (k, l) in self.dkls:
            return self.dkls[(k, l)]
        if k <= self.order and l <= self.order:
            return 0
        raise OrderError("covariance coefficient (%d,%d) beyond order %d" %
                         (k, l, self.order))

    def to_json(self):
        from .scalars import scalar_to_json
        return {"cks": [scalar_to_json(c) for c in self.cks],
                "dkls": [{"k": k, "l": l, "value": scalar_to_json(v)}
                         for (k, l), v in sorted(self.dkls.items())
                         if k <= l],
                "order": self.order}

    @staticmethod
    def from_json(obj):
        from .scalars import scalar_from_json
        return LimitData(
            cks=[scalar_from_json(c) for c in obj["cks"]],
            dkls={(e["k"], e["l"]): scalar_from_json(e["value"])
                  for e in obj["dkls"]},
            order=obj["order"])


def build_U(data, var=SHIFT_VAR):
    """Reassemble the drift series about 1: sum of ck (z-1)^(k-1)/(k-1)!."""
    fact = 1
    coeffs = []
    for k, c in enumerate(data.cks, start=1):
        if k > 1:
            fact *= k - 1
        coeffs.append(c * Fraction(1, fact))
    return TruncSeries(var, 0, coeffs, data.order)


def build_V(data, zvar="z", wvar="w"):
    """Reassemble the shifted covariance kernel as a nested series."""
    fact = [1]
    for k in range(1, data.order + 1):
        fact.append(fact[-1] * k)
    outer = []
    for j in range(data.order):
        inner = [data.dkl(i + 1, j + 1) * Fraction(1, fact[i] * fact[j])
                 for i in range(data.order)]
        outer.append(TruncSeries(zvar, 0, inner, data.order))
    return TruncSeries(wvar, 0, outer, data.order)


# ---------------------------------------------------------------------------
# LLN / CLT residue extractions
# ---------------------------------------------------------------------------


def _drift_factor(U, var, theta):
    """1/x + (x+1)U(x+1)/theta as a Laurent series in `var`."""
    if not isinstance(U, TruncSeries):
        U = TruncSeries.constant(SHIFT_VAR, U)
    shifted = U.retag(var)
    lift = TruncSeries.polynomial(var, [1, 1]) * shifted * _coeff_inv(theta)
    return TruncSeries.monomial(var, -1, 1) + lift


def limit_moment(k, U, theta):
    """k-th limiting moment from the drift series U (expanded about 1)."""
    f = _drift_factor(U, "w", theta)
    power = f ** (k + 1)
    if power.order <= -1:
        raise OrderError("drift series order too small for moment %d" % k)
    reach = 0 if power.order == ORDER_INF else int(power.order)
    geo = geometric_alternating("w", reach + k + 2)
    return (power * geo).coefficient(-1) * Fraction(1, k + 1)


def limit_covariance_two_times(k, l, U_early, U_late, V_shifted, theta):
    """Double residue for the covariance of moments k (earlier) and l (later).

    `V_shifted` is the nested two-variable kernel about (1,1) with inner
    variable "z", outer "w", evaluated at the earlier of the two times.

    The z-factor carries the later drift and the w-factor the earlier one:
    the singular kernel z^(a-1) w^(-a-1) is not symmetric, and this is the
    orientation under which an independent-increment walk reproduces the
    exact answer cov = var(earlier time), checked against the closed-form
    Bernoulli case in the test suite.  Equal times are insensitive to the
    choice.
    """
    inv_theta = _coeff_inv(theta)
    f_z = _drift_factor(U_late, "z", theta)
    f_w = _drift_factor(U_early, "w", theta)
    big_z = f_z ** l
    big_w = f_w ** k
    # The singular kernel sum over a >= 1 is cut at a = l: the z-residue
    # pairs a with the coefficient of z^(-a) in f_z^l, which vanishes
    # identically below z^(-l), so higher terms contribute nothing.
    kernel_coeffs = [TruncSeries.monomial("z", a - 1, a * inv_theta)
                     for a in range(l, 0, -1)]
    kernel = TruncSeries("w", -l - 1, kernel_coeffs, ORDER_INF)
    kernel = kernel + V_shifted * (inv_theta * inv_theta)
    total = kernel * big_z * big_w
    res_w = total.coefficient(-1)
    if not isinstance(res_w, TruncSeries):
        return Fraction(res_w)
    res_zw = res_w.coefficient(-1)
    return res_zw


def limit_covariance(k, l, U, V_shifted, theta):
    """Equal-time limiting covariance of the k-th and l-th moments."""
    return limit_covariance_two_times(k, l, U, U, V_shifted, theta)


# ---------------------------------------------------------------------------
# Half-infinite Toeplitz resolvent vs exp-log factorization
# ---------------------------------------------------------------------------


def toeplitz_wienerhopf_check(symbol, max_power):
    """Compare (z-T)^(-1)_{00} against the factorization side, order by order.

    `symbol` maps offsets to entries of the half-infinite Toeplitz matrix
    T[i][j] = q[j - i].  For k = 0..max_power the k-th resolvent coefficient
    (T^k)_{00} is computed from a finite top-left minor and compared with the
    1/z^(k+1) coefficient of exp(sum_m a_m/(m z^m))/z, where a_m is the
    constant term of the m-th power of the symbol.  Returns (ok, report).
    """
    q = {m: c for m, c in symbol.items() if c}
    offsets = [abs(m) for m in q]
    reach = max(offsets) if offsets else 0
    size = max_power * reach + 2

    lhs = [1]
    vec = [1 if i == 0 else 0 for i in range(size)]
    for _ in range(max_power):
        vec = [sum(q[m] * vec[i + m] for m in q
                   if 0 <= i + m < size) for i in range(size)]
        lhs.append(vec[0])

    if q:
        lo = min(q)
        hi = max(q)
        t_poly = TruncSeries("y", lo, [q.get(m, 0) for m in range(lo, hi + 1)],
                             ORDER_INF)
    else:
        t_poly = TruncSeries.zero("y")
    a_coeffs = []
    power = TruncSeries.constant("y", 1)
    for m in range(1, max_power + 1):
        power = power * t_poly
        a_coeffs.append(power.coefficient(0) * Fraction(1, m))
    arg = TruncSeries("s", 1, a_coeffs, max_power + 1)
    rhs_series = arg.exp() * TruncSeries.monomial("s", 1, 1)

    ok = True
    report = []
    for k in range(max_power + 1):
        rhs = rhs_series.coefficient(k + 1)
        match = lhs[k] == rhs
        ok = ok and match
        report.append("power %d: minor %s, factorization %s, %s" %
                      (k, lhs[k], rhs, "match" if match else "MISMATCH"))
    return ok, report


# ---------------------------------------------------------------------------
# Stieltjes transform, R-transform, and the exponential profile integral
# ---------------------------------------------------------------------------


def moments_to_stieltjes(moments, var="1/z"):
    """Series sum m_k z^(-k-1) with mass m_0 = 1 prepended."""
    return TruncSeries(var, 1, [1] + list(moments), len(moments) + 2)


def stieltjes_moments(m, count):
    """First `count` moments encoded in a Stieltjes series."""
    return [m.coefficient(k + 1) for k in range(1, count + 1)]


def stieltjes_inverse(m, var="z"):
    """Functional inverse 1/u + k_0 + k_1 u + ... of a Stieltjes series."""
    if m.valuation() != 1 or m.coefficient(1) != 1:
        raise ValueError("expected a Stieltjes series with leading mass 1")
    return revert(m, var).reciprocal()

def stieltjes_from_inverse(k_series, var="1/z"):
    """Recover the Stieltjes series from its functional inverse."""
    return revert(k_series.reciprocal(), var)


def stieltjes_R_H(moments, order):
    """Moment list -> (Stieltjes m, R-transform, profile integral H).

    m is a series in "1/z"; R(z) = m^(-1)(z) - 1/z is a power series in z;
    H(x) = int_0^(ln x) (R(u)+1) du + ln(ln x / (x-1)) expanded about x = 1
    in the shifted variable "x-1".  H(1) = 0 by construction.
    """
    if order > len(moments):
        raise OrderError("need %d moments, got %d" % (order, len(moments)))
    m = moments_to_stieltjes(list(moments)[:order])
    k_series = stieltjes_inverse(m)
    r_series = k_series - TruncSeries.monomial("z", -1, 1)

    work = order + 2
    log_x = TruncSeries.polynomial("x-1", [1, 1]).truncate(work).log()
    anti = (r_series + 1).integrate()
    first = anti.compose(log_x).retag("x-1")
    ratio = TruncSeries("x-1", 0,
                        [Fraction((-1) ** n, n + 1) for n in range(work)],
                        work)
    second = ratio.log()
    return m, r_series, (first + second).truncate(order + 1)


# ---------------------------------------------------------------------------
# Specialization transforms and the evolved Stieltjes series
# ---------------------------------------------------------------------------


def _require_stable(rho, theta):
    if not rho.is_stable(theta):
        raise StabilityError("specialization radius must exceed 1")


def _components(rho):
    return getattr(rho, "components", (rho,))


def _require_regular_at_one(rho):
    """Expansions about z = 1 need every alpha-pole 1/alpha_i beyond 1.

    Beta-poles sit at negative locations and never obstruct; this admits
    boundary cases like a single beta = 1 whose radius is exactly 1.
    """
    for part in _components(rho):
        if any(a >= 1 for a in part.alphas):
            raise StabilityError(
                "alpha parameters must stay below 1 for expansions about 1")


def w_prime_of(rho, theta, arg, order):
    """Evaluate the derivative transform W' at a series argument.

    W'(y) = scale * (gamma + sum_i alpha_i/(1 - alpha_i y)
                            + sum_i beta_i/(1 + theta beta_i y));
    denominators must be units at the argument's constant term, which holds
    for any stable specialization evaluated at arguments with constant term
    0 or 1.
    """
    acc = TruncSeries.zero(arg.var, order)
    for part in _components(rho):
        piece = TruncSeries.constant(arg.var, part.gamma)
        for a in part.alphas:
            if a:
                piece = piece + (1 - arg * a).truncate(order).reciprocal() * a
        for b in part.betas:
            if b:
                den = (1 + arg * (theta * b)).truncate(order)
                piece = piece + den.reciprocal() * b
        acc = acc + piece * part.scale
    return acc.truncate(order)


def t_rho_of(rho, theta, arg, order):
    """Evaluate T(y) = y W'(y) at a series argument."""
    return (arg * w_prime_of(rho, theta, arg, order)).truncate(order)


def w_prime_series(rho, theta, var, order):
    """W' as a series about 0 straight from induced power-sum values."""
    return TruncSeries(var, 0,
                       [rho.p_value(n, theta) for n in range(1, order + 1)],
                       order)


def burgers_evolve(m0, rho, tau, theta, order):
    """Evolve a Stieltjes series for time tau under a stable specialization.

    The evolved series is defined through its functional inverse:
    m_tau^(-1)(u) = tau * T(e^u) + m0^(-1)(u).
    """
    _require_stable(rho, theta)
    tau = Fraction(tau)
    if m0.valuation() != 1 or m0.coefficient(1) != 1:
        raise ValueError("expected a Stieltjes series with leading mass 1")
    if not tau:
        return m0.truncate(min(m0.order, order + 2))
    k0 = stieltjes_inverse(m0, var="u")
    work = int(k0.order) + 2
    exp_u = TruncSeries.monomial("u", 1, 1, work).exp()
    shift = t_rho_of(rho, theta, exp_u, work)
    k_tau = k0 + shift * tau
    m_tau = stieltjes_from_inverse(k_tau)
    if m_tau.order < order + 2:
        raise OrderError("initial data supports only %d moments, need %d" %
                         (int(m_tau.order) - 2, order))
    return m_tau.truncate(order + 2)


# ---------------------------------------------------------------------------
# Walk-limit builders: drift and covariance kernels of the evolved measure
# ---------------------------------------------------------------------------


def packed_limit_moments(order):
    """Moments of the uniform law on [-1, 0], the packed-start limit shape."""
    return [Fraction((-1) ** k, k + 1) for k in range(1, order + 1)]


def walk_drift_series(rho, theta, tau, initial_moments, order, var=SHIFT_VAR):
    """Drift series about 1 of the time-tau evolved shape.

    U^(tau) = theta * (tau W'(z) + H'(z)) where H is the profile integral of
    the initial shape and both factors are expanded about z = 1.
    """
    _require_regular_at_one(rho)
    _, _, h_series = stieltjes_R_H(initial_moments, order)
    h_prime = h_series.derivative().retag(var)
    one_plus = TruncSeries.polynomial(var, [1, 1])
    w_prime = w_prime_of(rho, theta, one_plus, order)
    return ((w_prime * Fraction(tau) + h_prime) * theta).truncate(order)


def walk_covariance_kernel(initial_moments, order, zvar="z", wvar="w",
                           theta=1):
    """Shifted covariance kernel of the evolved shape (time independent).

    V(z,w) = theta d_z d_w log(1 + (z-1)(w-1) D(z,w)) where D is the divided
    difference of P(x) = x H'(x) between z and w; in shifted coordinates the
    coefficient of (z-1)^i (w-1)^j in D is the (i+j+1)-st shifted Taylor
    coefficient of P.
    """
    _, _, h_series = stieltjes_R_H(initial_moments, 2 * order + 1)
    p_series = TruncSeries.polynomial("x-1", [1, 1]) * h_series.derivative()
    outer = []
    for j in range(order):
        inner = [p_series.coefficient(i + j + 1) for i in range(order)]
        outer.append(TruncSeries(zvar, 0, inner, order))
    dd = TruncSeries(wvar, 0, outer, order)
    zmon = TruncSeries.monomial(zvar, 1, 1)
    wmon = TruncSeries.monomial(wvar, 1, 1)
    g = 1 + dd * zmon * wmon
    lng = g.log()

    def inner_derivative(c):
        return c.derivative() if isinstance(c, TruncSeries) else 0

    return lng.derivative().map_coefficients(inner_derivative) * theta


def walk_limit_data(rho, theta, tau, initial_moments, order):
    """Package drift and covariance coefficients of the evolved shape."""
    u_series = walk_drift_series(rho, theta, tau, initial_moments, order)
    v_kernel = walk_covariance_kernel(initial_moments, order, theta=theta)
    fact = [1]
    for k in range(1, order + 1):
        fact.append(fact[-1] * k)
    cks = [u_series.coefficient(j) * fact[j] for j in range(order)]
    dkls = {}
    for j in range(order):
        row = v_kernel.coefficient(j)
        for i in range(order):
            val = row.coefficient(i) if isinstance(row, TruncSeries) else 0
            if val:
                dkls[(i + 1, j + 1)] = val * (fact[i] * fact[j])
    return LimitData(cks=cks, dkls=dkls, order=order)
