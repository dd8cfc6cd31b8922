"""Integer partitions (Young diagrams) as plain tuples of positive parts.

A partition is a weakly decreasing tuple of positive integers; the empty
tuple is the empty diagram.  Boxes are addressed 1-based as (row i, column j).
All functions are pure; partitions are used directly as dict keys elsewhere.
"""

from math import factorial


def make_partition(parts):
    """Canonicalize an iterable of nonnegative ints: drop zeros, validate."""
    t = tuple(int(p) for p in parts if int(p) != 0)
    if any(p < 0 for p in t):
        raise ValueError("negative part in %r" % (parts,))
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        raise ValueError("parts not weakly decreasing: %r" % (parts,))
    return t


def weight(lam):
    return sum(lam)


def length(lam):
    return len(lam)


def conjugate(lam):
    """Transpose of the diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def contains(lam, mu):
    """True if the diagram of mu fits inside the diagram of lam."""
    if len(mu) > len(lam):
        return False
    return all(mu[i] <= lam[i] for i in range(len(mu)))


def dominance_leq(lam, mu):
    """Dominance order on a size class: every prefix sum of lam is <= mu's.

    Partitions of different sizes are incomparable (returns False).
    """
    if sum(lam) != sum(mu):
        return False
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a > b:
            return False
    return True


def z_lambda(lam):
    """Size of the centralizer of a permutation of cycle type lam."""
    out = 1
    mult = {}
    for p in lam:
        mult[p] = mult.get(p, 0) + 1
    for p, m in mult.items():
        out *= p ** m * factorial(m)
    return out


def multiplicities(lam):
    """Part -> multiplicity map."""
    out = {}
    for p in lam:
        out[p] = out.get(p, 0) + 1
    return out


def boxes(lam):
    """All boxes (i, j), 1-based, row by row."""
    for i, p in enumerate(lam, start=1):
        for j in range(1, p + 1):
            yield i, j


def arm(lam, i, j):
    """Number of boxes strictly right of (i, j) in its row."""
    return lam[i - 1] - j


def leg(lam, i, j):
    """Number of boxes strictly below (i, j) in its column."""
    return sum(1 for p in lam[i:] if p >= j)


def n_stat(lam):
    """sum_i (i - 1) * lam_i."""
    return sum(i * p for i, p in enumerate(lam))


def enumerate_partitions(size, max_length=None):
    """Partitions of `size` with at most `max_length` parts, reverse-lex.

    Reverse-lexicographic order starts at the one-row diagram and ends at the
    one-column diagram, e.g. (3), (2, 1), (1, 1, 1); it refines dominance
    from above.  None means no length restriction.
    """
    if size < 0:
        return
    if max_length is None:
        max_length = size

    def rec(remaining, largest, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    yield from rec(size, size, max_length)


def enumerate_all_partitions(max_size, max_length=None):
    """All partitions of size 0..max_size, sizes ascending, reverse-lex within."""
    for n in range(max_size + 1):
        yield from enumerate_partitions(n, max_length)
