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
* The start enters only through P(x) = x H'(x), for H its profile
  integral, stored about 1 in ``"x-1"``.  `profile_series` builds it by
  one series reversion, once per `walk_limit_data` call; the route through
  H itself (a reversion, a reciprocal, an integral, a composition with
  log x and a second log) is the test oracle.

The limit data of a walk (`LimitData`) is the pair (U, V) itself, with
one drift U per requested time: the paper's first- and second-order
coefficients are their Taylor coefficients up to factorials, and the
residue extractors read the series directly.

All residues are coefficient extractions on truncated Laurent series; an
insufficient truncation surfaces as ``OrderError``.
"""

from collections import namedtuple
from fractions import Fraction

from .errors import OrderError, StabilityError
from .series import ORDER_INF, TruncSeries, _coeff_inv, revert

SHIFT_VAR = "z-1"


def default_order(ks):
    """Working truncation order for requested moment indices `ks`."""
    return 2 * max(ks) + 4


# ---------------------------------------------------------------------------
# Limit data
# ---------------------------------------------------------------------------


class LimitData(namedtuple("LimitData", "U V")):
    """A walk's limit data: the series the residue extractors read.

    `U` is a list of drift series about 1, one per requested time, and `V`
    the shifted covariance kernel, which does not depend on time, in the
    conventions above.  The first-order coefficients c_k and the
    second-order d_{k,l} are their Taylor coefficients up to factorials:
    c_k = (k-1)! [(z-1)^(k-1)] U[i] and
    d_{k,l} = (k-1)! (l-1)! [(z-1)^(k-1) (w-1)^(l-1)] V.
    It is a tuple: iterable, and equal to the plain tuple (U, V).
    """

    __slots__ = ()


def build_V(data):
    """The shifted covariance kernel of `data`, a nested series."""
    return data.V


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
    """k-th limiting moment from the drift series U (expanded about 1).

    The residue of f^(k+1) / ((k+1)(1+w)) at w = 0, for f the drift factor:
    an alternating sum of the coefficients of w^-1, ..., w^-(k+1) in
    f^(k+1).  As f starts at 1/w, those need f only below w^k.
    """
    power = _drift_factor(U, "w", theta).truncate(k) ** (k + 1)
    if power.order <= -1:
        raise OrderError("drift series order too small for moment %d" % k)
    return sum((-1) ** j * power.coefficient(-1 - j)
               for j in range(k + 1)) * Fraction(1, k + 1)


def limit_covariance_two_times(k, l, U_early, U_late, V_shifted, theta):
    """Double residue for the covariance of moments k (earlier) and l (later).

    `V_shifted` is the nested two-variable kernel about (1,1) with inner
    variable "z", outer "w", evaluated at the earlier of the two times; its
    rows (coefficients of powers of w-1) are z-series or scalars.

    The z-factor carries the later drift and the w-factor the earlier one:
    the singular kernel z^(a-1) w^(-a-1) is not symmetric, and this is the
    orientation under which an independent-increment walk reproduces the
    exact answer cov = var(earlier time), checked against the closed-form
    Bernoulli case in the test suite.  Equal times are insensitive to the
    choice.

    The residue of (kernel) f_z^l f_w^k is read off coefficient by
    coefficient, with F = f_z^l and G = f_w^k:

        sum_{a=1..l} (a/theta) [z^-a] F [w^a] G
        + theta^-2 sum_{i<l, j<k} V_ij [z^(-1-i)] F [w^(-1-j)] G.

    The sum over a >= 1 stops at l because F vanishes below z^-l, and the V
    sum at i < l, j < k for the same reason.  It raises OrderError when a
    coefficient it reads lies beyond its series' truncation: any [w^a] G
    for a <= l and any row j < k of V, and, for the terms whose G factor
    and V row are nonzero, the F coefficients and the row's coefficients
    below z^l.
    """
    inv_theta = _coeff_inv(theta)
    if not (isinstance(V_shifted, TruncSeries) and V_shifted.var == "w"):
        V_shifted = TruncSeries.constant("w", V_shifted)
    # F is read only below z^0 and G only up to w^l; as each factor starts
    # at the -1st power, its coefficients from z^(l-1) (w^(l+k)) on never
    # reach them
    big_z = _drift_factor(U_late, "z", theta).truncate(l - 1) ** l
    big_w = _drift_factor(U_early, "w", theta).truncate(l + k) ** k
    singular = 0
    for a in range(1, l + 1):
        g = big_w.coefficient(a)
        if g:
            singular += a * big_z.coefficient(-a) * g
    regular = 0
    for j in range(k):
        row = V_shifted.coefficient(j)
        g = big_w.coefficient(-1 - j)
        if not (row and g):
            continue
        if not isinstance(row, TruncSeries):
            row = TruncSeries.constant("z", row)
        regular += g * sum(row.coefficient(i) * big_z.coefficient(-1 - i)
                           for i in range(row.low, l))
    return singular * inv_theta + regular * (inv_theta * inv_theta)


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
# Stieltjes transform and the limit profile
# ---------------------------------------------------------------------------


def moments_to_stieltjes(moments):
    """Series sum m_k z^(-k-1) with mass m_0 = 1 prepended."""
    return TruncSeries("1/z", 1, [1] + list(moments), len(moments) + 2)


def profile_series(moments, order):
    """P(x) = x H'(x) about x = 1, in "x-1", truncated at `order`.

    H is the profile integral of the start whose moments are `moments`
    (Bufetov-Gorin, GAFA 2015): H(x) = int_0^(ln x) (R(u)+1) du
    + ln(ln x / (x-1)), for R(u) = K(u) - 1/u and K = m^(-1) the inverse
    of the Stieltjes series m.  Differentiating gives
    P(x) = K(ln x) - 1/(x-1), so y = P + 1/(x-1) solves exp(m(y)) = x.
    As exp(m(1/w)) - 1 = w + ... has valuation 1 in w = 1/z, its
    compositional inverse v gives y = 1/v(x-1): one reversion, with no
    integral, composition or second logarithm.  P(1) = m_1 + 1/2, and
    the packed start gives P = 0, since there exp(m(y)) = 1 + 1/y.
    """
    if order > len(moments):
        raise OrderError("need %d moments, got %d" % (order, len(moments)))
    m = moments_to_stieltjes(list(moments)[:order])
    v = revert(m.exp() - 1, "x-1")
    return v.reciprocal() - TruncSeries.monomial("x-1", -1, 1)


# ---------------------------------------------------------------------------
# Specialization transforms
# ---------------------------------------------------------------------------


def _require_regular_at_one(rho):
    """Expansions about z = 1 need every alpha-pole 1/alpha_i beyond 1.

    Beta-poles sit at negative locations and never obstruct; this admits
    boundary cases like a single beta = 1 whose radius is exactly 1.
    """
    for part in rho.components:
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
    for part in rho.components:
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


# ---------------------------------------------------------------------------
# Walk-limit builders: drift and covariance kernels of the evolved measure
# ---------------------------------------------------------------------------


def packed_limit_moments(order):
    """Moments of the uniform law on [-1, 0], the packed-start limit shape."""
    return [Fraction((-1) ** k, k + 1) for k in range(1, order + 1)]


def walk_drift_series(rho, theta, taus, profile, order):
    """Drift series about 1 of the evolved shape at each time tau in taus.

    U^(tau) = theta * (tau W'(z) + H'(z)) where H is the profile integral of
    the initial shape, H'(z) = P(z)/z for P = `profile` (`profile_series`,
    read below `order`), and both factors are expanded about z = 1; they
    do not depend on tau, so they are built once for all the times.  Right
    for any start.
    """
    _require_regular_at_one(rho)
    one_plus = TruncSeries.polynomial(SHIFT_VAR, [1, 1])
    p_series = profile.truncate(order).retag(SHIFT_VAR)
    h_prime = p_series * one_plus.reciprocal(order)
    w_prime = w_prime_of(rho, theta, one_plus, order)
    return [((w_prime * Fraction(tau) + h_prime) * theta).truncate(order)
            for tau in taus]


def walk_covariance_kernel(profile, order, theta=1):
    """Shifted covariance kernel of the evolved shape (time independent).

    V(z,w) = theta d_z d_w log(1 - (z-1)(w-1) D(z,w)) where D is the divided
    difference of P(x) = x H'(x) = `profile` between z and w (Bufetov-Gorin,
    "Fluctuations of particle systems determined by Schur generating
    functions", Adv. Math. 338, 2018); in shifted coordinates the
    coefficient of (z-1)^i (w-1)^j in D is the (i+j+1)-st shifted Taylor
    coefficient of P, so P is read up to (x-1)^(2*order - 1).  The packed
    start has P = 0 and so V = 0; a deterministic start does not
    fluctuate, so every covariance vanishes at tau = 0.
    """
    outer = []
    for j in range(order):
        inner = [profile.coefficient(i + j + 1) for i in range(order)]
        outer.append(TruncSeries("z", 0, inner, order))
    dd = TruncSeries("w", 0, outer, order)
    zmon = TruncSeries.monomial("z", 1, 1)
    wmon = TruncSeries.monomial("w", 1, 1)
    g = 1 - dd * zmon * wmon
    lng = g.log()

    def inner_derivative(c):
        return c.derivative() if isinstance(c, TruncSeries) else 0

    return lng.derivative().map_coefficients(inner_derivative) * theta


def walk_limit_data(rho, theta, taus, initial_moments, order):
    """Drift series at each time in `taus` and covariance kernel of the
    evolved shape, from one `profile_series` of the start.

    It builds P to order 2*order, as the kernel reads it up to
    (x-1)^(2*order - 1), and so raises OrderError on fewer than 2*order
    moments; the drifts read P below `order`.
    """
    profile = profile_series(initial_moments, 2 * order)
    return LimitData(walk_drift_series(rho, theta, taus, profile, order),
                     walk_covariance_kernel(profile, order, theta))
