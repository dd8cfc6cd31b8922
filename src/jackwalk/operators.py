"""The hierarchy of commuting operators I^(k) acting on power-sum polynomials.

I^(k) is the (0,0) entry of the k-th power of a tridiagonal-in-spirit
infinite matrix L acting on sequences of PSumPoly: the entry taking row j to
row i multiplies by p_{j-i} when i < j, differentiates via (s/theta) d/dp_s
with s = i - j when i > j, and scales by j(1/theta - 1) on the diagonal.
Row 0 is annihilated by the diagonal and every path contributing to (L^k)_00
must return to row 0, so k sweeps over a sparse row map evaluate the
operator exactly with no truncation; the last sweep only shifts into row 0.

The sweeps do integer work.  Write theta = P/Q with P and Q integers when
theta and the coefficients of f are rational, integer polynomials in theta
otherwise.  Then P L has the
entries P p_{j-i}, s Q d/dp_s and j(Q - P), all over Z (or Z[theta]), and
I^(k) f = (P L)^k_00 F / (D P^k), where F holds the numerators of f over
one common denominator D.  The sweeps are multiply-adds, and each output
coefficient is reduced once, by D P^k.  The eigenvalues take the same
scaling: with 1/u = P v, the coefficient of 1/u^(k+1) in their generating
series is P^(-k) [v^k] of

    prod_i (1 + (iP - lam_i Q) v) / (1 + ((i-1)P - lam_i Q) v),

divided by (1 + nPv), a series with constant term 1 whose coefficients
follow from multiply-adds with no division.

The point of the hierarchy: the Jack functions are joint eigenfunctions, and
suitable products of I^(k) extract moments of the particle measures attached
to random diagrams directly from their generating functions.
"""

import math
from fractions import Fraction

from .partitions import length, make_partition
from .psum import _merge_keys, from_numerators
from .scalars import THETA, _Ring
from .series import TruncSeries
from .specializations import specialize_ones

__all__ = [
    "apply_I", "eigenvalue_series", "eigenvalue_of",
    "moment_factor", "joint_moment_via_operators", "joint_moment_multitime",
    "f_cumulant", "set_partitions",
]

UVAR = "1/u"


class _Lax:
    """A sparse row map {row: {partition: numerator}} threaded through
    powers of P L, over one denominator D of the starting polynomial."""

    __slots__ = ("ring", "den", "rows", "diag", "sq")

    def __init__(self, f, theta):
        coeffs = list(f.terms.values())
        self.ring = ring = _Ring(theta, coeffs)
        nums, self.den = ring.numerators(coeffs)
        self.rows = {0: dict(zip(f.terms, nums))} if nums else {}
        # row j holds terms of size degree - j or less, so the rows and the
        # factor m s of d/dp_s on p_s^m stay within the degree of f
        degree = max(f.degree(), 0) + 1
        diag = ring.sub(ring.Q, ring.P)
        self.diag = [ring.mul(ring.const(j), diag) for j in range(degree)]
        self.sq = [ring.mul(ring.const(t), ring.Q) for t in range(degree)]

    def sweep(self):
        """One application of P L."""
        add, mul, P = self.ring.add, self.ring.mul, self.ring.P
        diag, sq = self.diag, self.sq
        out = {}

        def put(i, key, c):
            row = out.get(i)
            if row is None:
                out[i] = {key: c}
            else:
                acc = row.get(key)
                row[key] = c if acc is None else add(acc, c)

        for j, f in self.rows.items():
            d = diag[j]
            for key, c in f.items():
                if j:
                    if d:
                        put(j, key, mul(c, d))
                    cp = mul(c, P)
                    for i in range(j):
                        put(i, _merge_keys(key, (j - i,)), cp)
                prev = None
                for at, s in enumerate(key):
                    if s != prev:
                        prev = s
                        put(j + s, key[:at] + key[at + 1:],
                            mul(c, sq[key.count(s) * s]))
        self.rows = {i: kept for i, kept in
                     ((i, {key: c for key, c in row.items() if c})
                      for i, row in out.items()) if kept}

    def row0(self):
        """Row 0 after one more sweep: the shifts P p_j out of each row j."""
        add, mul, P = self.ring.add, self.ring.mul, self.ring.P
        out = {}
        for j, f in self.rows.items():
            if j:
                for key, c in f.items():
                    key = _merge_keys(key, (j,))
                    acc = out.get(key)
                    c = mul(c, P)
                    out[key] = c if acc is None else add(acc, c)
        return out


def _lax_after(k, f, theta):
    """The row map of f after k - 1 sweeps, ready to read I^(k) f."""
    if k < 1:
        raise ValueError("operator index must be >= 1")
    lax = _Lax(f, theta)
    for _ in range(k - 1):
        lax.sweep()
    return lax


def apply_I(k, f, theta=THETA):
    """I^(k) f = (L^k)_00 f, exactly: (P L)^k_00 on the numerators of f,
    reduced once per coefficient by D P^k."""
    lax = _lax_after(k, f, theta)
    ring = lax.ring
    return from_numerators(lax.row0(),
                           ring.mul(lax.den, ring.power(ring.P, k)), ring)


def _eigen_numerators(lam, n, ring, k):
    """[v^0..v^k] of prod_{i<=n} (1 + (iP - lam_i Q) v) /
    (1 + ((i-1)P - lam_i Q) v), divided by 1 + nPv, over Z or Z[theta]."""
    lam = make_partition(lam)
    if length(lam) > n:
        raise ValueError("diagram has more rows than variables")
    P, Q, add, mul, const = ring.P, ring.Q, ring.add, ring.mul, ring.const
    r = [const(1)] + [const(0)] * k

    def over(c):  # r / (1 - c v)
        for m in range(1, k + 1):
            r[m] = add(r[m], mul(c, r[m - 1]))

    for i, part in enumerate(lam + (0,) * (n - len(lam)), 1):
        lq = mul(const(part), Q)
        a = ring.sub(mul(const(i), P), lq)
        for m in range(k, 0, -1):  # r (1 + a v)
            r[m] = add(r[m], mul(a, r[m - 1]))
        over(ring.sub(lq, mul(const(i - 1), P)))
    over(mul(const(-n), P))
    return r


def eigenvalue_series(lam, n, theta=THETA, order=8):
    """Generating series of the eigenvalues of I^(k) on J_lam.

    Returns the expansion of (1/(u+n)) prod_{i=1}^{n}
    (u + i - lam_i/theta)/(u + i - 1 - lam_i/theta) in powers of 1/u up to
    the requested order; the coefficient of 1/u^(k+1) is the eigenvalue of
    I^(k).  Trailing parts lam_i = 0 make consecutive factors telescope, so
    any n >= len(lam) gives a consistent family.
    """
    if order < 1:
        raise ValueError("eigenvalue series order must be >= 1")
    ring = _Ring(theta)
    r = _eigen_numerators(lam, n, ring, order - 1)
    return TruncSeries(UVAR, 1, [ring.scalar(c, ring.power(ring.P, m))
                                 for m, c in enumerate(r)], order + 1)


def eigenvalue_of(k, lam, n, theta=THETA):
    """The exact eigenvalue of I^(k) on J_lam in n variables: one
    coefficient of the eigenvalue series, reduced once."""
    if k < 0:
        raise ValueError("operator index must be >= 0")
    ring = _Ring(theta)
    r = _eigen_numerators(lam, n, ring, k)
    return ring.scalar(r[k], ring.power(ring.P, k))


def moment_factor(k, f, n, theta=THETA):
    """One factor I^(k)/n^k + I^(k+1)/n^(k+1) of a joint-moment product.

    Both terms come from one run of k + 1 sweeps, summed over the one
    denominator D P^(k+1) n^(k+1)."""
    lax = _lax_after(k, f, theta)
    ring = lax.ring
    add, mul = ring.add, ring.mul
    nP = mul(ring.const(n), ring.P)
    row = {key: mul(c, nP) for key, c in lax.row0().items()}
    lax.sweep()
    for key, c in lax.row0().items():
        acc = row.get(key)
        row[key] = c if acc is None else add(acc, c)
    den = mul(mul(lax.den, ring.power(ring.P, k + 1)),
              ring.const(n ** (k + 1)))
    return from_numerators(row, den, ring)


def joint_moment_via_operators(f, n, theta, ks):
    """Joint moment of the particle measure read off a generating function.

    Applies the factors I^(k)/n^k + I^(k+1)/n^(k+1) for the requested
    exponents, which commute, and evaluates at p = 1^n: the time-0 case
    of joint_moment_multitime.  When f is the exact generating function
    of a measure on diagrams with at most n rows, this equals
    E prod_j integral x^{k_j} d(particle measure).
    """
    return joint_moment_multitime(f, [], n, theta, [(0, k) for k in ks])


def joint_moment_multitime(f, gs, n, theta, schedule):
    """Multi-time joint moment along a trajectory of the Markov chain.

    ``gs[t-1]`` is the update polynomial of step t (the ratio of the step's
    reproducing kernel to its value at 1^n); ``schedule`` lists
    (time, exponent) pairs with nondecreasing integer times.  Factors act
    earliest-time first, with the step polynomials multiplied in as the
    clock advances, and the result is evaluated at p = 1^n.
    """
    pairs = list(schedule)
    if any(t2 < t1 for (t1, _), (t2, _) in zip(pairs, pairs[1:])):
        raise ValueError("schedule times must be nondecreasing")
    now = 0
    for t, k in pairs:
        if t < 0 or t > len(gs):
            raise ValueError("scheduled time %d outside 0..%d" % (t, len(gs)))
        while now < t:
            f = f * gs[now]
            now += 1
        f = moment_factor(k, f, n, theta)
    return specialize_ones(f, n)


def set_partitions(items):
    """All partitions of a list into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for blocks in set_partitions(rest):
        for i in range(len(blocks)):
            yield blocks[:i] + [[head] + blocks[i]] + blocks[i + 1:]
        yield [[head]] + blocks


def f_cumulant(f, n, theta, ks):
    """Cumulant-style alternating sum over set partitions of the exponents.

    sum over partitions P of {1..r} of (-1)^(|P|-1) (|P|-1)!
    prod_{blocks V} (prod_{s in V} I^(k_s)) f evaluated at p = 1^n.
    On an eigenfunction ratio every block factors, so all terms collapse and
    the r >= 2 values vanish.
    """
    ks = list(ks)
    block_value = {}

    def value(block):
        key = tuple(block)
        found = block_value.get(key)
        if found is None:
            g = f
            for s in reversed(block):
                g = apply_I(ks[s], g, theta)
            found = block_value[key] = specialize_ones(g, n)
        return found

    total = 0
    for blocks in set_partitions(range(len(ks))):
        term = Fraction((-1) ** (len(blocks) - 1)
                        * math.factorial(len(blocks) - 1))
        for block in blocks:
            term = term * value(sorted(block))
        total = total + term
    return total
