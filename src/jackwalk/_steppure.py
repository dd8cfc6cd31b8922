"""The single-beta step kernel.

Enumerates the vertical-strip successors of a diagram and their transition
probabilities for the single-beta walk at theta = p/q, in integers only.
For mu = lam + e_S, where S is the set of rows that grow, and
d_ij = lam_i - lam_j + theta (j - i),

    p(lam -> mu) = (theta b)^|S| (1 + theta b)^(-n) * prod_{i<j} F_ij,

where F_ij = 1 when both rows or neither are in S, (d_ij + theta)/d_ij when
only i is, and (d_ij - theta)/d_ij when only j is: the Jack limit of
Macdonald's psi' for e_r (Symmetric Functions and Hall Polynomials,
VI (6.24); Stanley 1989).
"""

__all__ = ["bernoulli_row"]


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
