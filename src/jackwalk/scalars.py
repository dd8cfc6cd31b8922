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

Polynomial gcds come from the heuristic gcd GCDHEU (Char, Geddes and Gonnet,
J. Symbolic Comput. 7, 1989).  For primitive a and b of positive degree it
evaluates both at an integer xi >= 2 min(|a|, |b|) + 2, where |.| is the
largest coefficient magnitude, takes the integer gcd of the two values and
reads its symmetric base-xi digits back as a polynomial G.  The primitive
part h of G is accepted only if it divides a and b exactly, and then it is
their gcd g (Geddes, Czapor and Labahn, *Algorithms for Computer Algebra*,
Thm 7.7): writing g = h f, g(xi) divides G(xi) = cont(G) h(xi), so f(xi)
divides cont(G) <= xi/2; but every root of f is a root of the input of
smaller norm, hence of modulus below that norm + 1 <= xi/2, so |f(xi)| >
xi/2 unless f is a unit.  A rejected h only means an unlucky xi; after a
few larger ones the primitive pseudo-remainder sequence takes over.  The
division check yields the cofactors too, so reducing num/den divides once.
A gcd with a nonzero constant side is 1 and costs nothing.

Arithmetic cancels before it multiplies (Henrici; Knuth, TAOCP vol. 2,
4.5.1).  A product of reduced operands takes gcd(a.num, b.den) and
gcd(b.num, a.den), never the gcd of the full products; a sum takes
d = gcd(a.den, b.den) and then the gcd of the new numerator with d alone,
which is free when the denominators are coprime or one is constant.  Every
path ends in the same content and sign step, so it yields the canonical
pair whichever route produced it.

Bulk work avoids the field altogether: ``_Ring`` writes theta = P/Q and
runs sums of products over Z (numeric theta) or Z[theta] (ascending
tuples) over one common denominator, with one reduction at the end.  The
operators, the Jack tables and the Cauchy check share it.
"""

import math
import operator
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
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else tuple(c * x for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ptrim(out)


def _ppow(a, k):
    out = (1,)
    while k:
        if k & 1:
            out = _pmul(out, a)
        k >>= 1
        if k:
            a = _pmul(a, a)
    return out


def _pcontent(a):
    return _igcd(*a)


def _pprimitive(a):
    g = _pcontent(a)
    if g in (0, 1):
        return a
    return tuple(x // g for x in a)


def _pquo(a, b):
    """The exact quotient a / b over Z (a and b trimmed, b nonzero), or None
    when b does not divide a."""
    db = len(b) - 1
    n = len(a) - db
    if n <= 0:
        return None if a else ()
    a, lb, out = list(a), b[-1], [0] * n
    for shift in range(n - 1, -1, -1):
        la = a[shift + db]
        if la:
            q, r = divmod(la, lb)
            if r:
                return None
            out[shift] = q
            for i in range(db):  # the leading term cancels by construction
                a[shift + i] -= q * b[i]
    return None if any(a[:db]) else tuple(out)


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


def _prs_gcd(a, b):
    """Gcd of integer polynomials, returned primitive with positive lead, by
    the primitive pseudo-remainder sequence: the fallback of :func:`_pgcd`."""
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


def _pval(a, xi):
    acc = 0
    for c in reversed(a):
        acc = acc * xi + c
    return acc


def _pdigits(n, xi):
    """The polynomial G with G(xi) = n and coefficients in (-xi/2, xi/2]."""
    out, half = [], xi // 2
    while n:
        d = n % xi
        if d > half:
            d -= xi
        out.append(d)
        n = (n - d) // xi
    return tuple(out)


#: evaluation points GCDHEU tries before the pseudo-remainder fallback
_HEU_TRIES = 6


def _heu_gcd(a, b):
    """(g, a / g, b / g) by GCDHEU for primitive a and b of positive degree,
    or None when every evaluation point tried was unlucky."""
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(_HEU_TRIES):
        g = _pprimitive(_pdigits(_igcd(_pval(a, xi), _pval(b, xi)), xi))
        if len(g) == 1:
            return (1,), a, b
        if g[-1] < 0:
            g = _pneg(g)
        qa = _pquo(a, g)
        if qa is not None:
            qb = _pquo(b, g)
            if qb is not None:
                return g, qa, qb
        # the growth factor of Char, Geddes and Gonnet
        xi = xi * 73794 // 27011
    return None


def _pgcd(a, b):
    """(g, a / g, b / g) for trimmed integer polynomials a and b, not both
    zero: g is their gcd, primitive with positive leading coefficient."""
    if not a or not b or a == b:
        g = _pprimitive(a or b)
        if g[-1] < 0:
            g = _pneg(g)
        unit = ((a or b)[-1] // g[-1],)
        return g, a and unit, b and unit
    if len(a) == 1 or len(b) == 1:
        return (1,), a, b
    ca, cb = _pcontent(a), _pcontent(b)
    pa = a if ca == 1 else tuple(x // ca for x in a)
    pb = b if cb == 1 else tuple(x // cb for x in b)
    found = _heu_gcd(pa, pb)
    if found is None:
        g = _prs_gcd(pa, pb)
        found = g, _pquo(pa, g), _pquo(pb, g)
    g, qa, qb = found
    if ca != 1:
        qa = tuple(ca * x for x in qa)
    if cb != 1:
        qb = tuple(cb * x for x in qb)
    return g, qa, qb


def _canonical(num, den):
    """The canonical pair of num / den, for num and den without a common
    polynomial factor (den nonzero): coprime contents, positive lead in
    den, and zero as ((), (1,))."""
    if not num:
        return (), (1,)
    c = _igcd(*num, *den)
    if den[-1] < 0:
        c = -c
    if c != 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    return num, den


def _make(num, den):
    return RationalFunction(*_canonical(num, den), _normalized=True)


def _product(an, ad, bn, bd):
    """(an/ad) * (bn/bd) for reduced pairs, cancelled across first."""
    if not an or not bn:
        return _make((), (1,))
    _, an, bd = _pgcd(an, bd)
    _, bn, ad = _pgcd(bn, ad)
    return _make(_pmul(an, bn), _pmul(ad, bd))


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
        if num:
            _, num, den = _pgcd(num, den)
        self.num, self.den = _canonical(num, den)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_value(v):
        if isinstance(v, RationalFunction):
            return v
        if isinstance(v, int):
            return RationalFunction((v,) if v else (), (1,), _normalized=True)
        if isinstance(v, Fraction):
            return RationalFunction((v.numerator,) if v.numerator else (),
                                    (v.denominator,), _normalized=True)
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

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        try:
            other = RationalFunction.from_value(other)
        except TypeError:
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        # Henrici: a/b + c/e = (a e' + c b') / (b' e' d) with d = gcd(b, e),
        # b = d b', e = d e'; only d can share a factor with the numerator
        d, ad, bd = _pgcd(self.den, other.den)
        num = _padd(_pmul(self.num, bd), _pmul(other.num, ad))
        if not num:
            return _make((), (1,))
        _, num, d = _pgcd(num, d)
        return _make(num, _pmul(_pmul(ad, bd), d))

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
        return _product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = RationalFunction.from_value(other)
        except TypeError:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero in Q(theta)")
        return _product(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other):
        return RationalFunction.from_value(other) / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        num, den = self.num, self.den
        if k < 0:
            if not num:
                raise ZeroDivisionError("0 ** negative in Q(theta)")
            num, den, k = den, num, -k
        # powers of coprime polynomials with coprime contents stay coprime
        num, den = _ppow(num, k), _ppow(den, k)
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        return RationalFunction(num, den, _normalized=True)

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
# integer work over one common denominator
# ---------------------------------------------------------------------------

def _numerators(coeffs):
    """Integer numerators of int/Fraction coefficients over their least
    common denominator, and that denominator."""
    den = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


class _Ring:
    """Z at a numeric theta on rational coefficients, Z[theta] (ascending
    coefficient tuples) otherwise: theta = P/Q, the ring operations, and
    the one reduction of a numerator over a denominator to a scalar."""

    __slots__ = ("poly", "P", "Q", "add", "mul")

    def __init__(self, theta, coeffs=()):
        theta = as_exact(theta)
        self.poly = isinstance(theta, RationalFunction) or any(
            isinstance(c, RationalFunction) for c in coeffs)
        if self.poly:
            theta = RationalFunction.from_value(theta)
            self.P, self.Q = theta.num, theta.den
            self.add, self.mul = _padd, _pmul
        else:
            self.P, self.Q = theta.numerator, theta.denominator
            self.add, self.mul = operator.add, operator.mul
        if not self.P:
            raise ZeroDivisionError("integer work needs theta != 0")

    def const(self, m):
        if self.poly:
            return (m,) if m else ()
        return m

    def sub(self, a, b):
        return self.add(a, self.mul(self.const(-1), b))

    def power(self, a, k):
        return _ppow(a, k) if self.poly else a ** k

    def quo(self, a, b):
        """The exact quotient a / b; ArithmeticError if b does not divide
        a, ZeroDivisionError if b is zero."""
        if not b:
            raise ZeroDivisionError("exact division by zero")
        if self.poly:
            q = _pquo(a, b)
            if q is None:
                raise ArithmeticError("%r does not divide %r" % (b, a))
            return q
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError("%r does not divide %r" % (b, a))
        return q

    def numerators(self, coeffs):
        """The numerators of coeffs over their least common denominator,
        and that denominator.  Over Z[theta] the lcm of the integer
        contents and the lcm of the primitive parts are taken separately:
        a polynomial gcd drops the content."""
        if not self.poly:
            return _numerators(coeffs)
        coeffs = [RationalFunction.from_value(c) for c in coeffs]
        parts = {}
        content, prim = 1, (1,)
        for den in {c.den for c in coeffs}:
            c = _pcontent(den)
            q = parts[den] = c, tuple(x // c for x in den)
            content = math.lcm(content, c)
            prim = _pmul(prim, _pgcd(prim, q[1])[2])
        scale = {den: _pmul((content // c,), _pquo(prim, q))
                 for den, (c, q) in parts.items()}
        return ([_pmul(c.num, scale[c.den]) for c in coeffs],
                _pmul((content,), prim))

    def scalar(self, c, den):
        return RationalFunction(c, den) if self.poly else Fraction(c, den)


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


def refuse_unknown_keys(obj, known, what):
    """Raise ValueError naming the keys of the JSON object obj that are not
    in known: a misspelt key would otherwise be ignored and its default
    taken without a word."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError("unknown key(s) %s in a %s, which reads only %s"
                         % (", ".join(map(repr, unknown)), what,
                            ", ".join(known)))


def scalar_from_json(obj):
    """Inverse of scalar_to_json; also accepts "p/q" strings and integers,
    so hand-written config files stay readable.  Anything else, a non-integer
    (or boolean) coefficient or a zero denominator raises ValueError."""
    if isinstance(obj, (str, int)):
        return parse_theta(str(obj))
    if not isinstance(obj, dict) or not {"num", "den"} <= set(obj):
        raise ValueError("an exact scalar is a \"p/q\" string, an integer "
                         "or {\"num\": [...], \"den\": [...]}, got %r"
                         % (obj,))
    num, den = obj["num"], obj["den"]
    if not (isinstance(num, list) and isinstance(den, list)
            and all(type(c) is int for c in num + den)):
        raise ValueError("scalar coefficients must be lists of integers, "
                         "got %r" % (obj,))
    if not any(den):
        raise ValueError("zero denominator in %r" % (obj,))
    rf = RationalFunction(tuple(num), tuple(den))
    if rf.is_constant():
        return rf.as_fraction()
    return rf


def parse_fraction(text):
    """Fraction(text), with a zero denominator reported as the malformed
    input it is: ValueError, like any other unparsable text."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (text,)) from None


def parse_theta(text):
    """Parse a command-line theta: "p/q", an integer string, or "symbolic".

    Decimal input is rejected on purpose; the whole pipeline is exact.
    """
    text = text.strip()
    if text == "symbolic":
        return THETA
    if "." in text or "e" in text.lower():
        raise ValueError("theta must be an exact fraction like 1/2, got %r" % text)
    return parse_fraction(text)
