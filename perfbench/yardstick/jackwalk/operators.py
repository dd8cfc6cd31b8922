"""The hierarchy of commuting operators I^(k) acting on power-sum polynomials.

I^(k) is the (0,0) entry of the k-th power of a tridiagonal-in-spirit
infinite matrix L acting on sequences of PSumPoly: the entry taking row j to
row i multiplies by p_{j-i} when i < j, differentiates via (s/theta) d/dp_s
with s = i - j when i > j, and scales by j(1/theta - 1) on the diagonal.
Row 0 is annihilated by the diagonal and every path contributing to (L^k)_00
must return to row 0, so k sweeps over a sparse row map evaluate the
operator exactly with no truncation.

The point of the hierarchy: the Jack functions are joint eigenfunctions, and
suitable products of I^(k) extract moments of the particle measures attached
to random diagrams directly from their generating functions.
"""

import math
from fractions import Fraction

from .partitions import length, make_partition
from .psum import PSumPoly, d_dp
from .scalars import THETA, as_exact, is_zero
from .series import ORDER_INF, TruncSeries
from .specializations import specialize_ones

__all__ = [
    "LaxState", "apply_I", "eigenvalue_series", "eigenvalue_of",
    "moment_factor", "joint_moment_via_operators", "joint_moment_multitime",
    "f_cumulant", "set_partitions",
]

UVAR = "1/u"


class LaxState:
    """Sparse row map {row index: PSumPoly} threaded through powers of L."""

    __slots__ = ("theta", "row_polys")

    def __init__(self, theta, row_polys):
        self.theta = as_exact(theta)
        self.row_polys = {i: f for i, f in row_polys.items() if f}

    @staticmethod
    def start(f, theta):
        return LaxState(theta, {0: f})

    def sweep(self):
        """One application of L."""
        th = self.theta
        inv = 1 / th
        diag = inv - 1
        new = {}

        def add(i, g):
            if not g:
                return
            prior = new.get(i)
            new[i] = g if prior is None else prior + g

        for j, f in self.row_polys.items():
            if j and diag:
                add(j, f * (j * diag))
            for i in range(j):
                add(i, f * PSumPoly.p(j - i))
            degrees = {part for key in f.terms for part in key}
            for s in degrees:
                add(j + s, d_dp(f, s) * (s * inv))
        return LaxState(th, new)

    def row(self, i):
        return self.row_polys.get(i, PSumPoly.zero())


def apply_I(k, f, theta=THETA):
    """I^(k) f = (L^k)_00 f, exactly."""
    if k < 1:
        raise ValueError("operator index must be >= 1")
    state = LaxState.start(f, theta)
    for _ in range(k):
        state = state.sweep()
    return state.row(0)


def eigenvalue_series(lam, n, theta=THETA, order=8):
    """Generating series of the eigenvalues of I^(k) on J_lam.

    Returns the expansion of (1/(u+n)) prod_{i=1}^{n}
    (u + i - lam_i/theta)/(u + i - 1 - lam_i/theta) in powers of 1/u up to
    the requested order; the coefficient of 1/u^(k+1) is the eigenvalue of
    I^(k).  Trailing parts lam_i = 0 make consecutive factors telescope, so
    any n >= len(lam) gives a consistent family.
    """
    lam = make_partition(lam)
    if length(lam) > n:
        raise ValueError("diagram has more rows than variables")
    th = as_exact(theta)
    w = TruncSeries.monomial(UVAR, 1, 1, ORDER_INF)
    numer = w
    denom = TruncSeries.constant(UVAR, 1, ORDER_INF)
    padded = lam + (0,) * (n - len(lam))
    for i in range(1, n + 1):
        shift = padded[i - 1] / th
        numer = numer * (1 + (i - shift) * w)
        denom = denom * (1 + (i - 1 - shift) * w)
    denom = denom * (1 + n * w)
    return (numer * denom.reciprocal(order)).truncate(order + 1)


def eigenvalue_of(k, lam, n, theta=THETA):
    """The exact eigenvalue of I^(k) on J_lam in n variables."""
    return eigenvalue_series(lam, n, theta, order=k + 1).coefficient(k + 1)


def moment_factor(k, f, n, theta=THETA):
    """One factor I^(k)/n^k + I^(k+1)/n^(k+1) of a joint-moment product."""
    nk = Fraction(n) ** k
    return apply_I(k, f, theta) / nk + apply_I(k + 1, f, theta) / (nk * n)


def joint_moment_via_operators(f, n, theta, ks):
    """Joint moment of the particle measure read off a generating function.

    Applies the factors I^(k)/n^k + I^(k+1)/n^(k+1) for each requested
    exponent (rightmost first) and evaluates at p = 1^n.  When f is the
    exact generating function of a measure on diagrams with at most n rows,
    this equals E prod_j integral x^{k_j} d(particle measure).
    """
    for k in reversed(list(ks)):
        f = moment_factor(k, f, n, theta)
    return specialize_ones(f, n)


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
