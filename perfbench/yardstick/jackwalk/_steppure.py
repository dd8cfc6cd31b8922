"""Pure-Python twin of the compiled step kernel.

Enumerates the vertical-strip successors of a diagram and their relative
transition weights for the theta = 1 single-beta walk.  The compiled
extension (jackwalk._stepkernel) implements the same contract; importers
pick whichever is available, so keep the two implementations in lockstep.
"""

__all__ = ["bernoulli_row"]


def bernoulli_row(lam, n, b_num, b_den):
    """Relative weights of one Bernoulli-walk step from ``lam``.

    Returns a list of (mu, num, den) with mu = lam + a vertical strip kept
    inside n rows and num/den = b^{|strip|} * V(mu)/V(lam), where V is the
    Vandermonde of the shifted parts lam_i - i.  Weights are exact and
    unnormalized: dividing by (b_num + b_den)^n / b_den^n makes them a
    probability row.
    """
    if len(lam) > n:
        raise ValueError("diagram has more than %d rows" % n)
    padded = list(lam) + [0] * (n - len(lam))
    y = [padded[i] - i for i in range(n)]
    out = []
    eps = [0] * n

    def rec(i, num, den):
        if i == n:
            mu = tuple(padded[j] + eps[j] for j in range(n))
            while mu and mu[-1] == 0:
                mu = mu[:-1]
            out.append((mu, num, den))
            return
        # leave row i unchanged
        num0, den0 = num, den
        for j in range(i):
            if eps[j] == 1:
                gap = y[j] - y[i]
                num0 *= gap + 1
                den0 *= gap
        eps[i] = 0
        rec(i + 1, num0, den0)
        # grow row i, allowed when the result is still a partition
        if i == 0 or padded[i - 1] + eps[i - 1] > padded[i]:
            num1, den1 = num * b_num, den * b_den
            for j in range(i):
                if eps[j] == 0:
                    gap = y[j] - y[i]
                    num1 *= gap - 1
                    den1 *= gap
            eps[i] = 1
            rec(i + 1, num1, den1)
            eps[i] = 0

    rec(0, 1, 1)
    return out
