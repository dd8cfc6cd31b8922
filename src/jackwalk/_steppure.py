"""The single-beta step kernel.

Enumerates the vertical-strip successors of a diagram and their transition
probabilities for the single-beta walk at theta = p/q, in integers only,
and draws one successor without enumerating them.
For mu = lam + e_S, where S is the set of rows that grow, and
d_ij = lam_i - lam_j + theta (j - i),

    p(lam -> mu) = (theta b)^|S| (1 + theta b)^(-n) * prod_{i<j} F_ij,

where F_ij = 1 when both rows or neither are in S, (d_ij + theta)/d_ij when
only i is, and (d_ij - theta)/d_ij when only j is: the Jack limit of
Macdonald's psi' for e_r (Symmetric Functions and Hall Polynomials,
VI (6.24); Stanley 1989).

`exact_draw` is the walk's one exact dyadic draw: the strip-tree descent
here and the row cache's bisection in `dynamics` both go through it.
"""

__all__ = ["bernoulli_draw", "bernoulli_row", "exact_draw"]


def bernoulli_row(lam, n, b_num, b_den, p=1, q=1):
    """One step from ``lam`` with b = b_num / b_den at theta = p / q.

    Returns (entries, den): entries lists (mu, num) for each mu = lam + a
    vertical strip kept inside n rows, in increasing mu order, and num/den
    is the exact probability of the step to mu.  Every num is positive;
    when b = 0 only lam itself is listed.

    The strips are built row by row over the shifted parts y_i = q lam_i -
    p i, so that q d_ij = y_i - y_j.  A partial strip on the first i rows
    keeps its shifted parts z_j and the running numerator
    (p b_num)^s (q b_den)^(i-s) prod_{j<k<i} (z_j - z_k); row i then
    multiplies it by prod_{j<i} (z_j - z_i) for z_i = y_i (row kept) or
    y_i + p (row grown, allowed while the result is a partition).  The
    matching denominator prod_{j<i} (y_j - y_i) does not depend on the
    strip.
    """
    if len(lam) > n:
        raise ValueError("diagram has more than %d rows" % n)
    padded = list(lam) + [0] * (n - len(lam))
    grow_weight, keep_weight = p * b_num, q * b_den
    den = (grow_weight + keep_weight) ** n
    states = [((), (), 1)]  # (canonical mu so far, shifted parts, numerator)
    for i in range(n):
        part = padded[i]
        y = q * part - p * i
        for j in range(i):
            den *= q * padded[j] - p * j - y
        # a zero row left as it is adds no part, so mu stays canonical
        keep_part = (part,) if part else ()
        grow_part = (part + 1,)
        keep_z = (y,)
        grow_z = (y + p,)
        extended = []
        append = extended.append
        for mu, zs, num in states:
            keep = num * keep_weight
            # row i may grow when every row above is nonzero and, past
            # row 0, the row above stays longer
            if b_num and len(mu) == i and (i == 0 or mu[-1] > part):
                grow = num * grow_weight
                for z in zs:
                    d = z - y
                    keep *= d
                    grow *= d - p
                append((mu + keep_part, zs + keep_z, keep))
                append((mu + grow_part, zs + grow_z, grow))
            else:
                for z in zs:
                    keep *= z - y
                append((mu + keep_part, zs + keep_z, keep))
        states = extended
    return [(mu, num) for mu, _, num in states], den


def bernoulli_draw(rng, lam, n, b_num, b_den, p=1, q=1):
    """One random step from ``lam``: the mu that a draw from the cumulative
    sums of ``bernoulli_row(lam, n, b_num, b_den, p, q)`` picks with the
    same random bits, found without listing the row.

    The draw is `exact_draw` over the cells [c', c) of the row's
    cumulative numerators, as in ``dynamics._draw_index``.

    The strips are the leaves of a binary tree that decides rows 0..n-1 in
    turn, kept before grown, which is the row's own order.  The draw
    descends it, keeping row i unless floor(u * den) reaches past the
    total numerator of the strips below the kept branch.  Row k has the
    shifted part y_k = q lam_k - p k, and z_k = y_k if it is kept or
    y_k + p if it grows.  Below a node that has decided z_0..z_i, the
    numerators of bernoulli_row sum to

        w * prod_{j<k<=i} (z_j - z_k) * det M,

    where w is the product of the decided rows' weights (gw = p b_num for
    a grown row, kw = q b_den for a kept one).  M has one row per
    undecided row k, with entries

        kw P(y_k) y_k^c + gw P(y_k + p) (y_k + p)^c,  c = 0, ..., m-1,

    P(x) = prod_{j<=i} (z_j - x) and m = n-1-i: the Vandermonde product
    is a determinant, linear in each row, so one row may carry the sum
    over that row's two choices.  A strip that is not a partition has a
    zero factor z_{k-1} - z_k and adds nothing.  Taking the rows of M
    last first gives prod_{j<k} (z_j - z_k) with no sign, and makes every
    term of each leading principal minor nonnegative and the all-kept
    term positive, so fraction-free elimination never meets a zero pivot.
    Replacing y^c by (y - s)^c, for any fixed s, leaves every leading
    minor as it is and keeps the entries small.
    """
    if len(lam) > n:
        raise ValueError("diagram has more than %d rows" % n)
    padded = list(lam) + [0] * (n - len(lam))
    grow_weight, keep_weight = p * b_num, q * b_den
    ys = [q * part - p * i for i, part in enumerate(padded)]
    den = (grow_weight + keep_weight) ** n
    for i, y in enumerate(ys):
        for j in range(i):
            den *= ys[j] - y
    zs = exact_draw(rng, den, lambda floor: _descend(
        floor, ys, grow_weight, keep_weight, p))
    # a grown row has z = y + p; zero rows left as they are add no part
    return tuple(part + (z != y) for part, y, z in zip(padded, ys, zs)
                 if part or z != y)


def exact_draw(rng, den, cell):
    """The choice whose cell holds u * den, for an exact uniform variate u.

    The cells tile [0, den) in integers; ``cell(floor)`` returns the choice
    whose cell holds floor and the lower end of that cell.  The draw takes
    r = rng.getrandbits(64), u = r / 2^64, and looks up floor(u * den).
    While u * den equals that lower end exactly and it is not 0 (a tie),
    64 more bits are appended to r and the draw is redone, so the choice
    is the one an exact uniform variate picks.  Scaling den and the cells
    alike moves no comparison."""
    bits = 64
    scaled = rng.getrandbits(bits) * den  # u * den * 2^bits
    while True:
        floor = scaled >> bits
        choice, low = cell(floor)
        if not low or low != floor or scaled & ((1 << bits) - 1):
            return choice
        scaled = (scaled << 64) + rng.getrandbits(64) * den
        bits += 64


def _descend(floor, ys, grow_weight, keep_weight, p):
    """The leaf of the strip tree (see bernoulli_draw) whose cell holds
    floor: its shifted parts z, and the lower end of its cell.

    keeps[k] = kw P(y_k) and grows[k] = gw P(y_k + p) are updated for
    every undecided row k as rows are decided; grows[i] is 0 exactly
    when row i cannot grow (b = 0, or the row above is only as long as
    row i would be)."""
    n = len(ys)
    keeps, grows = [keep_weight] * n, [grow_weight] * n
    shift = ys[n // 2] if n else 0
    powers = [(_powers(y - shift, n - 1), _powers(y + p - shift, n - 1))
              for y in ys]
    zs = []
    low = 0  # total numerator of the strips left of this node
    scale = 1  # w times the Vandermonde product of the decided rows
    for i, y in enumerate(ys):
        z = y
        ks = [keeps[k] * (y - ys[k]) for k in range(i + 1, n)]
        gs = [grows[k] * (y - ys[k] - p) for k in range(i + 1, n)]
        if grows[i]:
            # M of bernoulli_draw, rows last first
            m = n - 1 - i
            matrix = [[a * s + b * t for s, t in zip(sp[:m], tp[:m])]
                      for a, b, (sp, tp) in zip(reversed(ks), reversed(gs),
                                                reversed(powers[i + 1:]))]
            kept = scale * keeps[i] * _det(matrix)
            if floor >= low + kept:
                low += kept
                z = y + p
        if z == y:
            scale *= keeps[i]
        else:
            scale *= grows[i]
            ks = [keeps[k] * (z - ys[k]) for k in range(i + 1, n)]
            gs = [grows[k] * (z - ys[k] - p) for k in range(i + 1, n)]
        keeps[i + 1:], grows[i + 1:] = ks, gs
        zs.append(z)
    return zs, low


def _powers(x, count):
    """[1, x, x^2, ..., x^(count - 1)]."""
    out = [1] * count
    for c in range(1, count):
        out[c] = out[c - 1] * x
    return out


def _det(matrix):
    """Determinant of a square integer matrix whose leading principal
    minors are positive, by fraction-free (Bareiss) elimination of two
    columns per pass.  A pass replaces each entry of the remaining rows
    and columns by the 3 x 3 determinant it forms with the two pivot rows
    and columns, divided by the square of the last leading minor: by
    Sylvester's identity the quotient is exact, and it is the entry's
    bordered leading minor."""
    prev = 1
    while len(matrix) > 2:
        (p11, p12, *top1), (p21, p22, *top2) = matrix[0], matrix[1]
        pivot = p11 * p22 - p12 * p21
        square = prev * prev
        rest = []
        for f1, f2, *row in matrix[2:]:
            g1, g2 = p21 * f2 - p22 * f1, p12 * f1 - p11 * f2
            rest.append([(a * pivot + g1 * t1 + g2 * t2) // square
                         for a, t1, t2 in zip(row, top1, top2)])
        matrix = rest
        prev = pivot // prev
    if len(matrix) == 2:
        (a, b), (c, d) = matrix
        return (a * d - b * c) // prev
    return matrix[0][0] if matrix else 1
