"""The theta = 1 step kernel.

Enumerates the vertical-strip successors of a diagram and their transition
probabilities for the theta = 1 single-beta walk, in integers only.
"""

__all__ = ["bernoulli_row"]


def bernoulli_row(lam, n, b_num, b_den):
    """One Bernoulli-walk step from ``lam`` with b = b_num / b_den.

    Returns (entries, den): entries lists (mu, num) for each mu = lam + a
    vertical strip kept inside n rows, in increasing mu order, and num/den
    is the exact probability b^{|strip|} V(mu) / (V(lam) (1 + b)^n), where
    V is the Vandermonde of the shifted parts lam_i - i.  Every num is
    positive; when b = 0 only lam itself is listed.

    The strips are built row by row.  A partial strip on the first i rows
    keeps its shifted parts z_j and the running numerator
    b_num^s b_den^(i-s) prod_{j<k<i} (z_j - z_k); row i then multiplies it
    by prod_{j<i} (z_j - z_i) for z_i = y_i (row kept) or y_i + 1 (row
    grown, allowed while the result is a partition).  The matching
    denominator prod_{j<i} (y_j - y_i) does not depend on the strip.
    """
    if len(lam) > n:
        raise ValueError("diagram has more than %d rows" % n)
    padded = list(lam) + [0] * (n - len(lam))
    den = (b_num + b_den) ** n
    states = [((), (), 1)]  # (canonical mu so far, shifted parts, numerator)
    for i in range(n):
        part = padded[i]
        y = part - i
        for j in range(i):
            den *= padded[j] - j - y
        # a zero row left as it is adds no part, so mu stays canonical
        keep_part = (part,) if part else ()
        grow_part = (part + 1,)
        keep_z = (y,)
        grow_z = (y + 1,)
        extended = []
        append = extended.append
        for mu, zs, num in states:
            keep = num * b_den
            # row i may grow when every row above is nonzero and, past
            # row 0, the row above stays longer
            if b_num and len(mu) == i and (i == 0 or mu[-1] > part):
                grow = num * b_num
                for z in zs:
                    d = z - y
                    keep *= d
                    grow *= d - 1
                append((mu + keep_part, zs + keep_z, keep))
                append((mu + grow_part, zs + grow_z, grow))
            else:
                for z in zs:
                    keep *= z - y
                append((mu + keep_part, zs + keep_z, keep))
        states = extended
    return [(mu, num) for mu, _, num in states], den
