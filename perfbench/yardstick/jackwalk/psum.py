"""The algebra of symmetric functions presented in power sums.

Elements are finite linear combinations sum_lam c_lam * p_lam where p_lam =
p_{lam_1} p_{lam_2} ... is indexed by a partition and the coefficients are
exact scalars (Fraction or RationalFunction).  :class:`PSumPoly` is the one
carrier type for all symbolic computation in the package.

The monomial basis enters only through the change-of-basis maps
:func:`psum_to_monomial` and :func:`monomial_to_psum`.  Both directions are
driven by the same combinatorial product rule (multiplying a monomial
symmetric function by a power sum merges one part), so no coefficient tables
are hard-coded; the inverse direction solves the triangular system per size
class and caches it.
"""

from fractions import Fraction

from .errors import ResourceLimitError
from .partitions import enumerate_partitions, z_lambda
from .scalars import RationalFunction, as_exact, is_zero

#: refuse m <-> p conversions above this size (p(n) growth)
CONVERSION_SIZE_CUTOFF = 24


def _merge_keys(a, b):
    return tuple(sorted(a + b, reverse=True))


class PSumPoly:
    """A finite map {partition: coefficient}, no zero coefficients stored."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        out = {}
        if terms:
            for key, val in terms.items():
                if not is_zero(val):
                    out[tuple(key)] = as_exact(val)
        self.terms = out

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero():
        return PSumPoly()

    @staticmethod
    def one():
        return PSumPoly({(): 1})

    @staticmethod
    def p(k):
        """The single power sum p_k."""
        if k < 1:
            raise ValueError("power sum index must be >= 1")
        return PSumPoly({(k,): 1})

    @staticmethod
    def monomial(lam, coeff=1):
        return PSumPoly({tuple(lam): coeff})

    # -- structure -----------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        """Max |lam| over stored keys; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(k) for k in self.terms)

    def homogeneous_component(self, d):
        return PSumPoly({k: v for k, v in self.terms.items() if sum(k) == d})

    def truncate(self, max_degree):
        """Drop all terms of total degree above max_degree."""
        return PSumPoly({k: v for k, v in self.terms.items()
                         if sum(k) <= max_degree})

    def coefficient(self, lam):
        return self.terms.get(tuple(lam), Fraction(0))

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, RationalFunction)):
            other = PSumPoly({(): other})
        if not isinstance(other, PSumPoly):
            return NotImplemented
        out = dict(self.terms)
        for key, val in other.terms.items():
            acc = out.get(key)
            acc = val if acc is None else acc + val
            if is_zero(acc):
                out.pop(key, None)
            else:
                out[key] = acc
        res = PSumPoly()
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = PSumPoly()
        res.terms = {k: -v for k, v in self.terms.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, RationalFunction)):
            other = PSumPoly({(): other})
        if not isinstance(other, PSumPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, PSumPoly):
            out = {}
            for ka, va in self.terms.items():
                for kb, vb in other.terms.items():
                    key = _merge_keys(ka, kb)
                    val = va * vb
                    acc = out.get(key)
                    acc = val if acc is None else acc + val
                    if is_zero(acc):
                        out.pop(key, None)
                    else:
                        out[key] = acc
            res = PSumPoly()
            res.terms = out
            return res
        # scalar multiple
        if not isinstance(other, (int, Fraction, RationalFunction)):
            return NotImplemented
        other = as_exact(other)
        if is_zero(other):
            return PSumPoly()
        res = PSumPoly()
        res.terms = {k: v * other for k, v in self.terms.items()}
        return res

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        res = PSumPoly()
        res.terms = {k: v / scalar for k, v in self.terms.items()}
        return res

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = PSumPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, RationalFunction)):
            other = PSumPoly({(): other})
        if not isinstance(other, PSumPoly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "PSumPoly(0)"
        bits = []
        for key in sorted(self.terms, key=lambda k: (sum(k), k), reverse=True):
            bits.append("%r*p%s" % (self.terms[key], list(key)))
        return "PSumPoly(%s)" % " + ".join(bits)

    # -- serialization -------------------------------------------------------

    def to_json(self):
        from .scalars import scalar_to_json
        return [{"index": list(k), "coeff": scalar_to_json(v)}
                for k, v in sorted(self.terms.items(),
                                   key=lambda kv: (sum(kv[0]), kv[0]))]

    @staticmethod
    def from_json(items):
        from .scalars import scalar_from_json
        return PSumPoly({tuple(it["index"]): scalar_from_json(it["coeff"])
                         for it in items})


# ---------------------------------------------------------------------------
# spec'd module-level operations
# ---------------------------------------------------------------------------

def psum_multiply(f, g):
    """Product in the polynomial ring; key concatenation, re-sorted."""
    return f * g


def d_dp(f, k):
    """Formal partial derivative with respect to the variable p_k."""
    if k < 1:
        raise ValueError("derivative index must be >= 1")
    out = {}
    for key, val in f.terms.items():
        mult = key.count(k)
        if not mult:
            continue
        rest = list(key)
        rest.remove(k)
        rest = tuple(rest)
        acc = out.get(rest)
        contrib = val * mult
        acc = contrib if acc is None else acc + contrib
        if is_zero(acc):
            out.pop(rest, None)
        else:
            out[rest] = acc
    res = PSumPoly()
    res.terms = out
    return res


def scalar_product(f, g, theta):
    """<p_lam, p_mu> = delta * z_lam * theta^(-len(lam)), extended bilinearly."""
    theta = as_exact(theta)
    total = Fraction(0)
    for key, val in f.terms.items():
        other = g.terms.get(key)
        if other is None:
            continue
        total = total + val * other * z_lambda(key) * theta ** (-len(key))
    return total


# ---------------------------------------------------------------------------
# monomial basis conversions
# ---------------------------------------------------------------------------

_PSUM_IN_MONOMIAL = {}   # partition -> {partition: int}
_MONOMIAL_IN_PSUM = {}   # size -> {partition: {partition: Fraction}}


def _check_cutoff(size):
    if size > CONVERSION_SIZE_CUTOFF:
        raise ResourceLimitError(
            "monomial conversion refused at size %d (cutoff %d)"
            % (size, CONVERSION_SIZE_CUTOFF))


def _multiply_monomial_by_psum(expansion, r):
    """Given f = sum c_mu m_mu, return p_r * f in the monomial basis.

    Moving from m_mu to m_nu, nu is mu with one part v (possibly v = 0)
    replaced by v + r, and the coefficient picked up is the multiplicity of
    v + r in nu.
    """
    out = {}
    for mu, c in expansion.items():
        seen = set(mu)
        seen.add(0)
        for v in seen:
            parts = list(mu)
            if v:
                parts.remove(v)
            parts.append(v + r)
            nu = tuple(sorted(parts, reverse=True))
            mult = nu.count(v + r)
            out[nu] = out.get(nu, 0) + c * mult
    return {k: v for k, v in out.items() if v}


def psum_to_monomial(lam):
    """Expansion p_lam = sum_mu c_{lam mu} m_mu; coefficients are nonnegative
    integers, supported on mu that dominate lam (so len(mu) <= len(lam))."""
    lam = tuple(lam)
    _check_cutoff(sum(lam))
    cached = _PSUM_IN_MONOMIAL.get(lam)
    if cached is None:
        expansion = {(): 1}
        for r in lam:
            expansion = _multiply_monomial_by_psum(expansion, r)
        _PSUM_IN_MONOMIAL[lam] = cached = expansion
    return dict(cached)


def _monomial_class_in_psum(size):
    """Express every m_mu of a size class over the p basis (triangular solve)."""
    cached = _MONOMIAL_IN_PSUM.get(size)
    if cached is not None:
        return cached
    order = list(enumerate_partitions(size))
    table = {}
    for mu in order:  # reverse-lex refines dominance from above
        acc = {mu: Fraction(1)}          # start from p_mu ...
        row = psum_to_monomial(mu)
        diag = row.pop(mu)
        for nu, c in row.items():        # ... subtract the earlier m_nu
            for plam, d in table[nu].items():
                val = acc.get(plam, Fraction(0)) - c * d
                if val:
                    acc[plam] = val
                else:
                    acc.pop(plam, None)
        if diag != 1:
            acc = {k: v / diag for k, v in acc.items()}
        table[mu] = acc
    _MONOMIAL_IN_PSUM[size] = table
    return table


def monomial_to_psum(lam):
    """The monomial symmetric function m_lam as a PSumPoly."""
    lam = tuple(lam)
    _check_cutoff(sum(lam))
    if not lam:
        return PSumPoly.one()
    table = _monomial_class_in_psum(sum(lam))
    return PSumPoly(table[lam])


def monomial_expansion(f):
    """Expand a PSumPoly in the monomial basis: {partition: coefficient}."""
    out = {}
    for key, val in f.terms.items():
        for mu, c in psum_to_monomial(key).items():
            acc = out.get(mu)
            contrib = val * c
            acc = contrib if acc is None else acc + contrib
            if is_zero(acc):
                out.pop(mu, None)
            else:
                out[mu] = acc
    return out
