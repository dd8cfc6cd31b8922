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

`bernoulli_draw` draws one successor by descending the tree of strips a
row at a time.  It carries the bordered leading minors of one integer
matrix from node to node, starting from a closed form in complete
homogeneous symmetric polynomials, at O(n^2) products per decided row
and O(n^3) per draw, where the row holds up to 2^n strips.

At theta = 1 from the empty diagram, `push_block_step` draws the same
walk another way: it moves a Gelfand-Tsetlin pattern whose top level is
the diagram, by Bernoulli push-block dynamics, at O(n^2) small-integer
work and one 64-bit word per free part a step.  It draws the same law
as the strip tree, not the same strips from the same bits.

`exact_draw` is the walk's one exact dyadic draw: the strip-tree
descent and the row cache's bisection in `dynamics` go through it.  A
push-block coin is that draw over two cells, read off one comparison of
the word with the least word that grows, and settled by the same loop
(`_settle`) on a tie.
"""

__all__ = ["bernoulli_draw", "bernoulli_row", "exact_draw", "push_block_step"]


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
    y_k + p if it grows.  Below a node that has decided z_0..z_(i-1), the
    numerators of bernoulli_row sum to

        w * prod_{j<k<i} (z_j - z_k) * det R_i,

    where w is the product of the decided rows' weights (gw = p b_num for
    a grown row, kw = q b_den for a kept one).  R_i has one row per
    undecided row k >= i, last first, with entries

        keeps[k] (y_k - s)^c + grows[k] (y_k + p - s)^c,  0 <= c < n - i,

    keeps[k] = kw P(y_k), grows[k] = gw P(y_k + p) and
    P(x) = prod_{j<i} (z_j - x): the Vandermonde product is a
    determinant, linear in each row, so one row may carry the sum over
    that row's two choices, and any fixed shift s leaves the leading
    minors as they are.  A strip that is not a partition has a zero factor
    z_{k-1} - z_k and adds nothing.  Taken last first, every term of each
    leading principal minor of R_i is nonnegative and the all-kept term
    positive.

    Deciding z_i multiplies row k's two parts by z_i - y_k = t - x and
    z_i - y_k - p = t - (x + p), where t = z_i - s and x = y_k - s.
    Since (t - x) x^c = t x^c - x^(c+1), the child's matrix is R_i
    without its last row (row i) times the bidiagonal matrix with t on
    the diagonal and -1 below it, so the descent carries R_i only through
    its bordered leading minors and never builds it; see _descend.
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
    return _settle(rng, den, cell, rng.getrandbits(64))


def _settle(rng, den, cell, word):
    """`exact_draw` whose first 64 bits, word, are already drawn."""
    bits = 64
    scaled = word * den  # u * den * 2^bits
    while True:
        floor = scaled >> bits
        choice, low = cell(floor)
        if not low or low != floor or scaled & ((1 << bits) - 1):
            return choice
        scaled = (scaled << 64) + rng.getrandbits(64) * den
        bits += 64


def push_block_step(rng, levels, b_num, b_den):
    """One step of Bernoulli push-block dynamics at theta = 1, in place.

    ``levels`` is a Gelfand-Tsetlin pattern: levels[k - 1] holds the k
    parts x^k_1 >= ... >= x^k_k of level k, for k = 1..N, and adjacent
    levels interlace, x^k_i >= x^(k-1)_i >= x^k_(i+1).  The levels are
    updated from the bottom, each part in row order against the level
    below it, already updated:

    * pushed (+1) when part i below is x^k_i + 1, which x^k_i must not
      fall behind;
    * blocked (+0) when part i - 1 below is x^k_i, which x^k_i must not
      pass;
    * free otherwise: it grows by the `exact_draw` over the cells keep
      [0, b_den) and grow [b_den, b_den + b_num), kept before grown as in
      the strip tree, so with probability b / (1 + b).

    A free part takes one 64-bit word, and more only when the word puts
    u * den exactly on the boundary b_den (a tie), as `exact_draw` does;
    pushed and blocked parts take none.  The levels keep interlacing and
    every part grows by at most 1, so the top level takes a vertical
    strip.  From the packed pattern (every part 0), the top level's path
    has the law of the single-beta walk of bernoulli_row at theta = 1
    (Borodin and Ferrari 2008, "Anisotropic growth of random surfaces in
    2+1 dimensions"; Warren and Windridge 2009, "Some examples of
    dynamics for Gelfand-Tsetlin patterns"), at O(N^2) small-integer
    work a step."""
    den = b_num + b_den
    cut = -(-(b_den << 64) // den)  # the least word that grows
    tie = cut if not (b_den << 64) % den else -1  # it lands on b_den

    def cell(floor):
        return (True, b_den) if floor >= b_den else (False, 0)

    getrandbits = rng.getrandbits
    below = [-1]  # nothing pushes or blocks the bottom part
    for level in levels:
        blocker = -1  # part i - 1 below, updated
        for i, (x, pusher) in enumerate(zip(level, below)):
            if pusher > x:
                level[i] = pusher
            elif blocker != x:
                word = getrandbits(64)
                if word >= cut and (word != tie
                                    or _settle(rng, den, cell, word)):
                    level[i] = x + 1
            blocker = pusher
        below = level + [-1]  # the last part has no part i below


def _descend(floor, ys, grow_weight, keep_weight, p):
    """The leaf of the strip tree (see bernoulli_draw) whose cell holds
    floor: its shifted parts z, and the lower end of its cell.

    The descent carries the bordered leading minors

        G[r][c] = det R_i[0..r, (0..r-1) and c],  0 <= r <= c < n - i,

    of the node's matrix R_i, whose last one G[n-1-i][n-1-i] is det R_i.
    At the root they have the closed form of _start_minors,

        G_0[r][c] = (kw + gw)^r prod_{a<b<=r} (x_b - x_a)
                    * (kw h_(c-r)(x_0..x_r) + gw h_(c-r)(x_0+p..x_r+p)),

    x_r = y_(n-1-r) - s, and _next_minors takes them from a node to a
    child with O(n^2) products, so a draw costs O(n^3) and runs no
    elimination.  With keeps[i] = kw P(y_i), grows[i] = gw P(y_i + p)
    and scale = w prod_{j<k<i} (z_j - z_k), the node's cell is
    [low, low + scale det R_i), and the kept branch weighs
    scale * keeps[i] times its child's determinant, the grown branch
    scale * grows[i] times its own.  Either one gives the other, so the
    descent weighs first the child that floor's place in the cell points
    to, reading kw / (kw + gw) as the kept share, and builds the other
    child's minors only when the guess was wrong.  grows[i] is 0 exactly
    when row i cannot grow (b = 0, or the row above is kept and as long
    as row i), and then the kept branch holds the whole cell.  Once row i
    is kept and every row below is as long as row i, no row below can
    grow either: every z left is y and the descent ends."""
    n = len(ys)
    if not (grow_weight and ys):
        return list(ys), 0
    shift = ys[n // 2]
    minors = _start_minors([y - shift for y in reversed(ys)], grow_weight,
                           keep_weight, p)
    zs = []
    low = 0  # total numerator of the strips left of this node
    scale = 1  # w times the Vandermonde product of the decided rows
    for i, y in enumerate(ys):
        keep, grow = keep_weight, grow_weight  # keeps[i], grows[i]
        for decided in zs:
            keep *= decided - y
            grow *= decided - y - p
        z = y
        child = None
        if grow:
            total = scale * minors[-1][0]  # the cell is [low, low + total)
            guess = y
            if (floor - low) * (keep_weight + grow_weight) >= \
                    keep_weight * total:
                guess = y + p
            child = _next_minors(minors, guess - shift)
            weight = scale * (keep if guess == y else grow)
            if child:
                weight *= child[-1][0]
            kept = weight if guess == y else total - weight
            if floor >= low + kept:
                low += kept
                z = y + p
            if z != guess:
                child = None
        zs.append(z)
        if z == y and ys[-1] == y - p * (n - 1 - i):
            return zs + ys[i + 1:], low
        scale *= keep if z == y else grow
        minors = child if child is not None else \
            _next_minors(minors, z - shift)
    return zs, low


def _start_minors(xs, grow_weight, keep_weight, p):
    """The root's bordered leading minors G_0 (see _descend) for
    x_r = xs[r], as rows G[r] = [G[r][r], G[r][r+1], ...].  The complete
    homogeneous symmetric polynomials come from
    h_d(x_0..x_r) = h_d(x_0..x_(r-1)) + x_r h_(d-1)(x_0..x_r)."""
    n = len(xs)
    total = grow_weight + keep_weight
    kept_h, grown_h = [1] + [0] * (n - 1), [1] + [0] * (n - 1)
    factor = 1  # (kw + gw)^r prod_{a<b<=r} (x_b - x_a)
    minors = []
    for r, x in enumerate(xs):
        grown_x = x + p
        for d in range(1, n - r):
            kept_h[d] += x * kept_h[d - 1]
            grown_h[d] += grown_x * grown_h[d - 1]
        if r:
            for earlier in xs[:r]:
                factor *= x - earlier
            factor *= total
        minors.append([factor * (keep_weight * k + grow_weight * g)
                       for k, g in zip(kept_h[:n - r], grown_h[:n - r])])
    return minors


def _next_minors(minors, t):
    """The bordered leading minors of R' = R C, given those of R (one row
    fewer in R', which drops R's last row), where C has t on the diagonal
    and -1 below it, so that column c of R' is t R_c - R_(c+1):

        G'[0][c] = t G[0][c] - G[0][c+1],
        G'[r+1][c] = ((t G[r+1][c] - G[r+1][c+1]) G'[r][r]
                      + G[r+1][r+1] G'[r][c]) / G[r][r].

    Every division is exact (G' are minors of an integer matrix) and every
    G[r][r] is positive (bernoulli_draw)."""
    if len(minors) < 2:
        return []
    top = minors[0]
    row = [t * g - h for g, h in zip(top, top[1:])]
    out = [row]
    for above, below in zip(minors, minors[1:-1]):
        pivot, lead, corner = above[0], below[0], row[0]
        row = [((t * g - h) * corner + lead * e) // pivot
               for g, h, e in zip(below, below[1:], row[1:])]
        out.append(row)
    return out
