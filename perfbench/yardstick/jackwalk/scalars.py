"""Exact scalars: rationals and rational functions of the deformation parameter.

Every quantity in this package is either an exact rational number
(``fractions.Fraction``) or an exact element of the rational-function field
Q(theta), represented by :class:`RationalFunction`.  The two kinds mix freely
in arithmetic; plain ints are accepted everywhere and promoted on demand.

A :class:`RationalFunction` stores an integer-coefficient numerator and
denominator (coefficient lists in ascending powers of theta), kept reduced:
the polynomial gcd is divided out, the integer content is coprime between the
two, and the denominator's leading coefficient is positive.  This makes the
representation canonical, so equality and hashing are structural.
"""

from fractions import Fraction
from math import gcd as _igcd


# ---------------------------------------------------------------------------
# dense integer polynomials as tuples, ascending powers
# ---------------------------------------------------------------------------

def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a, b):
    n = max(len(a), len(b))
    return _ptrim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                   for i in range(n)])


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ptrim(out)


def _pscale(a, k):
    if k == 0:
        return ()
    return tuple(x * k for x in a)


def _pcontent(a):
    g = 0
    for x in a:
        g = _igcd(g, abs(x))
        if g == 1:
            break
    return g


def _pprimitive(a):
    g = _pcontent(a)
    if g in (0, 1):
        return a
    return tuple(x // g for x in a)


def _ppseudo_rem(a, b):
    """Pseudo-remainder of a by b (b nonzero, deg a >= deg b), over Z."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and _ptrim(a):
        da, la = len(a) - 1, a[-1]
        a = [x * lb for x in a]
        for i in range(len(b)):
            a[da - db + i] -= la * b[i]
        a = list(_ptrim(a))
    return _ptrim(a)


def _pgcd(a, b):
    """Gcd of integer polynomials, returned primitive with positive lead."""
    a, b = _ptrim(a), _ptrim(b)
    if not a:
        g = _pprimitive(b)
    elif not b:
        g = _pprimitive(a)
    else:
        a, b = _pprimitive(a), _pprimitive(b)
        while b:
            if len(a) < len(b):
                a, b = b, a
                continue
            r = _ppseudo_rem(a, b)
            a, b = b, _pprimitive(r)
        g = a
    if g and g[-1] < 0:
        g = _pneg(g)
    return g


def _pdiv_exact(a, b):
    """Exact division a / b over Z (raises if not exact)."""
    a, b = list(_ptrim(a)), _ptrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return ()
    db, lb = len(b) - 1, b[-1]
    if len(a) - 1 < db:
        raise ArithmeticError("inexact polynomial division")
    out = [0] * (len(a) - db)
    for shift in range(len(a) - 1 - db, -1, -1):
        la = a[shift + db]
        if la:
            q, r = divmod(la, lb)
            if r:
                raise ArithmeticError("inexact polynomial division")
            out[shift] = q
            for i in range(db + 1):
                a[shift + i] -= q * b[i]
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return _ptrim(out)


def _peval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


class RationalFunction:
    """An exact element of Q(theta): integer-poly numerator / denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num=(), den=(1,), _normalized=False):
        if _normalized:
            self.num, self.den = num, den
            return
        num, den = _ptrim(num), _ptrim(den)
        if not den:
            raise ZeroDivisionError("zero denominator in Q(theta)")
        if not num:
            self.num, self.den = (), (1,)
            return
        g = _pgcd(num, den)
        if len(g) > 1 or g[0] != 1:
            num, den = _pdiv_exact(num, g), _pdiv_exact(den, g)
        cn, cd = _pcontent(num), _pcontent(den)
        c = _igcd(cn, cd)
        if c > 1:
            num = tuple(x // c for x in num)
            den = tuple(x // c for x in den)
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        self.num, self.den = num, den

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_value(v):
        if isinstance(v, RationalFunction):
            return v
        if isinstance(v, int):
            return RationalFunction((v,) if v else ())
        if isinstance(v, Fraction):
            return RationalFunction((v.numerator,) if v.numerator else (),
                                    (v.denominator,))
        raise TypeError("cannot coerce %r into Q(theta)" % (v,))

    # -- predicates ----------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def is_constant(self):
        return len(self.num) <= 1 and len(self.den) <= 1

    def as_fraction(self):
        if not self.is_constant():
            raise ValueError("not a constant: %r" % (self,))
        if not self.num:
            return Fraction(0)
        return Fraction(self.num[0], self.den[0])

    def substitute(self, value):
        """Evaluate at theta = value (a Fraction or int), exactly."""
        value = Fraction(value)
        d = _peval(self.den, value)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at theta=%s" % value)
        return _peval(self.num, value) / d

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        try:
            other = RationalFunction.from_value(other)
        except TypeError:
            return NotImplemented
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return RationalFunction(num, _pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(_pneg(self.num), self.den, _normalized=True)

    def __sub__(self, other):
        try:
            other = RationalFunction.from_value(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            other = RationalFunction.from_value(other)
        except TypeError:
            return NotImplemented
        return RationalFunction(_pmul(self.num, other.num),
                                _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = RationalFunction.from_value(other)
        except TypeError:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero in Q(theta)")
        return RationalFunction(_pmul(self.num, other.den),
                                _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return RationalFunction.from_value(other) / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if not self.num:
                raise ZeroDivisionError("0 ** negative in Q(theta)")
            base, k = RationalFunction(self.den, self.num), -k
        else:
            base = self
        out = RationalFunction((1,))
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            try:
                other = RationalFunction.from_value(other)
            except TypeError:
                return NotImplemented
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.is_constant():
            return hash(self.as_fraction())
        return hash((self.num, self.den))

    def __repr__(self):
        def side(c):
            if not c:
                return "0"
            parts = []
            for i, x in enumerate(c):
                if not x:
                    continue
                if i == 0:
                    parts.append(str(x))
                elif i == 1:
                    parts.append("%s*t" % x if abs(x) != 1 else
                                 ("t" if x == 1 else "-t"))
                else:
                    parts.append("%s*t^%d" % (x, i) if abs(x) != 1 else
                                 ("t^%d" % i if x == 1 else "-t^%d" % i))
            return " + ".join(parts).replace("+ -", "- ")
        if self.den == (1,):
            return "(%s)" % side(self.num)
        return "(%s)/(%s)" % (side(self.num), side(self.den))


#: the generator of Q(theta)
THETA = RationalFunction((0, 1))


# ---------------------------------------------------------------------------
# mixed-mode helpers used throughout the package
# ---------------------------------------------------------------------------

def is_zero(x):
    if isinstance(x, RationalFunction):
        return not x.num
    return x == 0


def as_exact(x):
    """Normalize an int/Fraction/RationalFunction; ints become Fractions."""
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (Fraction, RationalFunction)):
        return x
    raise TypeError("not an exact scalar: %r" % (x,))


def substitute_theta(x, value):
    """Evaluate a scalar at theta = value; plain rationals pass through."""
    if isinstance(x, RationalFunction):
        return x.substitute(value)
    return as_exact(x)


def as_fraction(x):
    """Demote a scalar that is actually constant to a Fraction."""
    if isinstance(x, RationalFunction):
        return x.as_fraction()
    return as_exact(x)


def scalar_to_json(x):
    """Serialize as {"num": [...], "den": [...]}: integer coefficient lists
    in ascending powers of theta."""
    x = RationalFunction.from_value(as_exact(x)) \
        if not isinstance(x, RationalFunction) else x
    return {"num": list(x.num), "den": list(x.den)}


def scalar_from_json(obj):
    """Inverse of scalar_to_json; also accepts "p/q" strings and integers,
    so hand-written config files stay readable."""
    if isinstance(obj, (str, int)):
        return parse_theta(str(obj))
    rf = RationalFunction(tuple(obj["num"]), tuple(obj["den"]))
    if rf.is_constant():
        return rf.as_fraction()
    return rf


def parse_theta(text):
    """Parse a command-line theta: "p/q", an integer string, or "symbolic".

    Decimal input is rejected on purpose; the whole pipeline is exact.
    """
    text = text.strip()
    if text == "symbolic":
        return THETA
    if "." in text or "e" in text.lower():
        raise ValueError("theta must be an exact fraction like 1/2, got %r" % text)
    return Fraction(text)
