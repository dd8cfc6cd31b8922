"""Truncated formal power/Laurent series over exact scalars.

A ``TruncSeries`` stores coefficients for exponents in a window
``[low, order)``; exponents below ``low`` are exactly zero, exponents at or
above ``order`` are unknown.  ``order`` may be ``ORDER_INF`` for exact
(polynomial) data.  ``low`` may be negative, so Laurent tails like ``1/w``
are first-class.

Coefficients are deliberately generic: ints, ``Fraction``, rational
functions of the deformation parameter, power-sum polynomials
(``PSumPoly``: a Cauchy kernel's degree parts), or nested ``TruncSeries``
in a *different* variable all work, which is how two-variable series are
represented (a series in ``w`` whose coefficients are series in ``z``).
Multiplying by a series in another variable therefore scales coefficients
instead of convolving, and falls out of the same code path as scalars.

Requesting a coefficient at or beyond ``order`` raises ``OrderError``; the
caller is expected to rebuild inputs at a higher order and retry.

Products and reciprocals follow Brent and Kung, "Fast algorithms for
manipulating formal power series", J. ACM 25, 1978.  A product of two
series whose coefficients are all ints and ``Fraction``s is one integer
convolution of their numerators over each side's common denominator, with
one ``Fraction``, and so one gcd, per output coefficient; ints stay ints.
Other coefficients multiply term by term, nested series included, whose
inner products take the integer path in turn.  A reciprocal follows the
O(n^2) recurrence b_k = -(a_1 b_(k-1) + ... + a_k b_0) / a_0, and exp
and log follow theirs, from b' = a' b and f' = c' f.  Callers
that need one coefficient of a product read it off the factors instead:
the limit residues in ``asymptotics`` are finite sums of coefficient
products.  ``revert`` inverts a series under composition by Lagrange
inversion.  There is no composition or antiderivative: the limit profile
takes one reversion (``asymptotics.profile_series``), and the test suite
keeps both, with the profile integral they built, as its oracle.
"""

from fractions import Fraction
from operator import add, mul

from .errors import OrderError
from .scalars import RationalFunction, _numerators

ORDER_INF = float("inf")

_SCALARS = (int, Fraction, RationalFunction)


def _is_rational(coeffs):
    return all(isinstance(c, (int, Fraction)) for c in coeffs)


def _rational_product(a, b, n):
    """The first n coefficients of the product of two int/Fraction
    coefficient lists: one integer convolution of the numerators over the
    common denominators, then one Fraction (one gcd) per coefficient, or
    ints when both lists are ints.
    """
    an, da = _numerators(a)
    bn, db = _numerators(b)
    den = da * db
    ints = all(type(c) is int for c in a) and all(type(c) is int for c in b)
    rb = bn[::-1]
    la, lb = len(a), len(b)
    out = []
    for k in range(n):
        lo = max(0, k - lb + 1)
        hi = min(k + 1, la)
        s = sum(map(mul, an[lo:hi], rb[lb - 1 - k + lo:lb - 1 - k + hi]))
        out.append(s if ints else Fraction(s, den))
    return out


def _coeff_inv(c):
    """Multiplicative inverse of a coefficient, staying exact."""
    if isinstance(c, TruncSeries):
        return c.reciprocal()
    if isinstance(c, int):
        return Fraction(1, c)
    return 1 / c


class TruncSeries:
    __slots__ = ("var", "low", "coeffs", "order")

    def __init__(self, var, low, coeffs, order):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
            low += 1
        if not coeffs:
            low = 0
        if order is None:
            order = ORDER_INF
        if order != ORDER_INF and coeffs and low + len(coeffs) > order:
            raise ValueError("coefficients extend past the truncation order")
        self.var = var
        self.low = low
        self.coeffs = tuple(coeffs)
        self.order = order

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(var, order=ORDER_INF):
        return TruncSeries(var, 0, (), order)

    @staticmethod
    def constant(var, value, order=ORDER_INF):
        return TruncSeries(var, 0, (value,), order)

    @staticmethod
    def monomial(var, exponent, coeff=1, order=ORDER_INF):
        return TruncSeries(var, exponent, (coeff,), order)

    @staticmethod
    def polynomial(var, coeffs, low=0, order=ORDER_INF):
        return TruncSeries(var, low, coeffs, order)

    # -- inspection ----------------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def is_samevar(self, other):
        return isinstance(other, TruncSeries) and other.var == self.var

    def coefficient(self, exponent):
        if exponent >= self.order:
            raise OrderError(
                "coefficient of %s^%d requested but series is truncated at "
                "order %s" % (self.var, exponent, self.order))
        i = exponent - self.low
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def items(self):
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.low + i, c

    def valuation(self):
        """Exponent of the first nonzero coefficient; None for a zero series."""
        return self.low if self.coeffs else None

    # -- trivial rebuilds ----------------------------------------------------

    def truncate(self, order):
        if order >= self.order:
            return self
        keep = [c for i, c in enumerate(self.coeffs) if self.low + i < order]
        return TruncSeries(self.var, self.low, keep, order)

    def retag(self, var):
        return TruncSeries(var, self.low, self.coeffs, self.order)

    def map_coefficients(self, fn):
        return TruncSeries(self.var, self.low,
                           [fn(c) for c in self.coeffs], self.order)

    # -- ring operations -----------------------------------------------------

    def _promote(self, other):
        if self.is_samevar(other):
            return other
        if isinstance(other, _SCALARS) or isinstance(other, TruncSeries):
            return TruncSeries.constant(self.var, other)
        return None

    def __add__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        order = min(self.order, other.order)
        sides = [s for s in (self, other) if s.coeffs]
        if not sides:
            return TruncSeries.zero(self.var, order)
        low = min(s.low for s in sides)
        hi = min(max(s.low + len(s.coeffs) for s in sides), order)
        if hi <= low:
            return TruncSeries.zero(self.var, order)
        width = hi - low

        def window(s):
            cs = list(s.coeffs[:max(hi - s.low, 0)])
            head = [0] * (s.low - low) if cs else []
            return head + cs + [0] * (width - len(head) - len(cs))

        return TruncSeries(self.var, low,
                           list(map(add, window(self), window(other))), order)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.var, self.low, [-c for c in self.coeffs],
                           self.order)

    def __sub__(self, other):
        promoted = self._promote(other)
        if promoted is None:
            return NotImplemented
        return self + (-promoted)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if self.is_samevar(other):
            order = min(self.order + other.low, other.order + self.low)
            if not self.coeffs or not other.coeffs:
                return TruncSeries.zero(self.var, order)
            low = self.low + other.low
            n = len(self.coeffs) + len(other.coeffs) - 1
            if order != ORDER_INF:
                n = min(n, order - low)
            if n <= 0:
                return TruncSeries.zero(self.var, order)
            if _is_rational(self.coeffs) and _is_rational(other.coeffs):
                out = _rational_product(self.coeffs, other.coeffs, n)
            else:
                out = [0] * n
                for i, a in enumerate(self.coeffs):
                    if not a:
                        continue
                    for j, b in enumerate(other.coeffs):
                        if i + j < n and b:
                            out[i + j] = out[i + j] + a * b
            return TruncSeries(self.var, low, out, order)
        if isinstance(other, _SCALARS) or isinstance(other, TruncSeries):
            return TruncSeries(self.var, self.low,
                               [c * other for c in self.coeffs], self.order)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("only nonnegative integer powers")
        if k == 0:
            return TruncSeries.constant(self.var, 1)
        acc = self
        for _ in range(k - 1):
            acc = acc * self
        return acc

    def __eq__(self, other):
        promoted = self._promote(other)
        if promoted is None:
            return NotImplemented
        if not self.coeffs and not promoted.coeffs:
            return True
        return (self.low, self.coeffs) == (promoted.low, promoted.coeffs)

    def __repr__(self):
        parts = []
        for k, c in self.items():
            if k == 0:
                parts.append("%s" % (c,))
            else:
                parts.append("%s*%s^%d" % (c, self.var, k))
            if len(parts) >= 8:
                parts.append("...")
                break
        body = " + ".join(parts) if parts else "0"
        if self.order == ORDER_INF:
            return "<%s>" % body
        return "<%s + O(%s^%s)>" % (body, self.var, self.order)

    # -- calculus ------------------------------------------------------------

    def derivative(self):
        out = [c * k for k, c in zip(range(self.low, self.low + len(self.coeffs)),
                                     self.coeffs)]
        order = self.order if self.order == ORDER_INF else self.order - 1
        return TruncSeries(self.var, self.low - 1, out, order)

    # -- multiplicative structure -------------------------------------------

    def reciprocal(self, order=None):
        if not self.coeffs:
            raise ZeroDivisionError("reciprocal of a zero series")
        v = self.low
        if self.order == ORDER_INF:
            if order is None:
                raise ValueError(
                    "reciprocal of exact data needs an explicit order")
            rel = order + v
        else:
            rel = self.order - v
        if rel < 1:
            raise ValueError("reciprocal truncated at or below its valuation")
        # self = x^v (a_0 + a_1 x + ...) and 1/self = x^-v (b_0 + b_1 x + ...)
        # with b_0 = 1/a_0 and b_k = -(a_1 b_(k-1) + ... + a_k b_0) / a_0
        a = self.coeffs[:rel]
        c0i = _coeff_inv(a[0])
        out = [c0i]
        for k in range(1, rel):
            acc = 0
            for i in range(1, min(k, len(a) - 1) + 1):
                if a[i]:
                    acc = acc + a[i] * out[k - i]
            out.append(-acc * c0i)
        return TruncSeries(self.var, -v, out, rel - v)

    def exp(self):
        """exp of a series with positive valuation: b_0 = 1 and
        d b_d = sum_{j <= d} j a_j b_(d-j), from b' = a' b."""
        if self.coeffs and self.low < 1:
            raise ValueError("exp needs a series with positive valuation")
        n = self.order
        if n == ORDER_INF:
            raise ValueError("exp of exact data needs a truncated input")
        ja = [(j, j * a) for j, a in self.items()]  # (j, j a_j), j rising
        b = [1]
        for d in range(1, n):
            acc = 0
            for j, jaj in ja:
                if j > d:
                    break
                acc = acc + jaj * b[d - j]
            b.append(acc * Fraction(1, d))
        return TruncSeries(self.var, 0, b, n)

    def log(self):
        """log of a series with constant term 1:
        d c_d = d f_d - sum_{j < d} j c_j f_(d-j), from f' = c' f."""
        if self.coefficient(0) != 1 or self.low < 0:
            raise ValueError("log needs a series with constant term 1")
        n = self.order
        if n == ORDER_INF:
            raise ValueError("log of exact data needs a truncated input")
        f = [self.coefficient(k) for k in range(n)]
        jc = [0]  # j c_j
        for d in range(1, n):
            acc = d * f[d]
            for j in range(1, d):
                if jc[j] and f[d - j]:
                    acc = acc - jc[j] * f[d - j]
            jc.append(acc)
        return TruncSeries(self.var, 1, [jc[d] * Fraction(1, d)
                                         for d in range(1, n)], n)


def revert(f, newvar):
    """Compositional inverse of a valuation-1 series, by Lagrange inversion.

    Given f = c1*x + c2*x^2 + ... with c1 invertible, returns g with
    f(g(u)) = u + O(u^order), tagged with `newvar`.
    """
    if f.valuation() != 1:
        raise ValueError("functional inverse needs valuation exactly 1")
    n = f.order
    if n == ORDER_INF:
        raise ValueError("functional inverse needs a truncated input")
    # h = x / f(x), a unit; the n-th inverse coefficient is [x^(n-1)] h^n / n.
    h = TruncSeries(f.var, 0, f.coeffs, n - 1)
    h = h.reciprocal()
    out = [0] * (n - 1)
    power = TruncSeries.constant(f.var, 1, n - 1)
    for k in range(1, n):
        power = power * h
        out[k - 1] = power.coefficient(k - 1) * Fraction(1, k)
    return TruncSeries(newvar, 1, out, n)
