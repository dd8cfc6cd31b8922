"""Truncated formal power/Laurent series over exact scalars.

A ``TruncSeries`` stores coefficients for exponents in a window
``[low, order)``; exponents below ``low`` are exactly zero, exponents at or
above ``order`` are unknown.  ``order`` may be ``ORDER_INF`` for exact
(polynomial) data.  ``low`` may be negative, so Laurent tails like ``1/w``
are first-class.

Coefficients are deliberately generic: ints, ``Fraction``, rational
functions of the deformation parameter, or nested ``TruncSeries`` in a
*different* variable all work, which is how two-variable series are
represented (a series in ``w`` whose coefficients are series in ``z``).
Multiplying by a series in another variable therefore scales coefficients
instead of convolving, and falls out of the same code path as scalars.

Requesting a coefficient at or beyond ``order`` raises ``OrderError``; the
caller is expected to rebuild inputs at a higher order and retry.
"""

from fractions import Fraction

from .errors import OrderError
from .scalars import RationalFunction, scalar_from_json, scalar_to_json

ORDER_INF = float("inf")

_SCALARS = (int, Fraction, RationalFunction)


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
        acc = {}
        for k, c in self.items():
            acc[k] = acc.get(k, 0) + c
        for k, c in other.items():
            acc[k] = acc.get(k, 0) + c
        acc = {k: c for k, c in acc.items() if k < order}
        if not acc:
            return TruncSeries.zero(self.var, order)
        low = min(acc)
        hi = max(acc)
        return TruncSeries(self.var, low,
                           [acc.get(k, 0) for k in range(low, hi + 1)], order)

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

    def __truediv__(self, other):
        if self.is_samevar(other):
            return self * other.reciprocal()
        if isinstance(other, _SCALARS):
            return self * _coeff_inv(other)
        return NotImplemented

    def __rtruediv__(self, other):
        inv = self.reciprocal()
        return inv * other

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.reciprocal() ** (-k)
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

    def integrate(self):
        """Antiderivative with zero constant term; rejects a 1/x term."""
        out = []
        for k, c in zip(range(self.low, self.low + len(self.coeffs)),
                        self.coeffs):
            if k == -1:
                if c:
                    raise ValueError("cannot integrate a 1/%s term" % self.var)
                out.append(0)
            else:
                out.append(c * Fraction(1, k + 1))
        order = self.order if self.order == ORDER_INF else self.order + 1
        return TruncSeries(self.var, self.low + 1, out, order)

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
        c0 = self.coeffs[0]
        c0i = _coeff_inv(c0)
        # self = c0 * x^v * (1 + h) with h of positive valuation.
        h = TruncSeries(self.var, 0, [c * c0i for c in self.coeffs],
                        self.order if self.order == ORDER_INF else rel)
        h = h.truncate(rel) - 1
        acc = TruncSeries.constant(self.var, 1, rel)
        for _ in range(max(rel - 1, 0)):
            acc = (1 - h * acc).truncate(rel)
        return TruncSeries(self.var, -v, [c * c0i for c in acc.coeffs],
                           rel - v)

    def compose(self, inner):
        """Substitute `inner` (positive valuation) for this series' variable."""
        if self.low < 0:
            raise ValueError("cannot compose a Laurent series")
        if not inner.coeffs:
            return TruncSeries.constant(inner.var, self.coefficient(0),
                                        inner.order)
        v = inner.valuation()
        if v < 1:
            raise ValueError("inner series must have positive valuation")
        bound = self.order if self.order == ORDER_INF else self.order * v
        acc = TruncSeries.zero(inner.var, bound)
        power = TruncSeries.constant(inner.var, 1)
        exponent = 0
        for k, c in self.items():
            while exponent < k:
                power = (power * inner).truncate(bound)
                exponent += 1
            acc = acc + power * c
        return acc.truncate(bound)

    def exp(self):
        if self.coeffs and self.low < 1:
            raise ValueError("exp needs a series with positive valuation")
        n = self.order
        if n == ORDER_INF:
            raise ValueError("exp of exact data needs a truncated input")
        acc = TruncSeries.constant(self.var, 1, n)
        power = TruncSeries.constant(self.var, 1)
        fact = 1
        k = 0
        while True:
            power = (power * self).truncate(n)
            if not power:
                break
            k += 1
            fact *= k
            acc = acc + power * Fraction(1, fact)
        return acc.truncate(n)

    def log(self):
        if self.coefficient(0) != 1 or self.low < 0:
            raise ValueError("log needs a series with constant term 1")
        n = self.order
        if n == ORDER_INF:
            raise ValueError("log of exact data needs a truncated input")
        h = self - 1
        acc = TruncSeries.zero(self.var, n)
        power = TruncSeries.constant(self.var, 1)
        k = 0
        sign = 1
        while True:
            power = (power * h).truncate(n)
            if not power:
                break
            k += 1
            acc = acc + power * Fraction(sign, k)
            sign = -sign
        return acc.truncate(n)

    # -- serialization -------------------------------------------------------

    def to_json(self):
        def enc(c):
            if isinstance(c, TruncSeries):
                return c.to_json()
            return scalar_to_json(c)

        return {"var": self.var, "low": self.low,
                "coeffs": [enc(c) for c in self.coeffs],
                "order": None if self.order == ORDER_INF else self.order}

    @staticmethod
    def from_json(obj):
        def dec(c):
            if isinstance(c, dict) and "var" in c:
                return TruncSeries.from_json(c)
            return scalar_from_json(c)

        return TruncSeries(obj["var"], obj["low"],
                           [dec(c) for c in obj["coeffs"]], obj["order"])


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


def geometric_alternating(var, order):
    """The formal sum 1 - x + x^2 - ... truncated at `order`."""
    return TruncSeries(var, 0, [(-1) ** a for a in range(order)], order)
