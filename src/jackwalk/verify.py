"""Batch checkers for the package's central exact identities.

Each suite returns a list of (case label, bool) pairs, one per checked
instance, so callers (the command-line `verify` verbs and the test suite)
can report granular pass/fail tables.  All randomness is drawn from an
explicit seed.
"""

import random
from fractions import Fraction

from .asymptotics import toeplitz_wienerhopf_check
from .dynamics import WalkConfig, transition_row
from .jack import basis_for, jack_polynomial
from .measures import empirical_moments_from_pp, pp_moments_from_empirical
from .operators import apply_I, eigenvalue_of, eigenvalue_series
from .partitions import (enumerate_all_partitions, enumerate_partitions,
                         length, z_lambda)
from .scalars import _Ring
from .specializations import Specialization


def _fmt(lam):
    return "(" + ",".join(str(p) for p in lam) + ")"


def eigenrelation_cases(max_size, max_rows, max_order, theta):
    """apply_I(k, J_lam) == eigenvalue * J_lam, and the eigenvalue family
    is consistent across alphabet sizes n = len(lam)..max_rows."""
    out = []
    for lam in enumerate_all_partitions(max_size, max_length=max_rows):
        poly = jack_polynomial(lam, theta)
        # one eigenvalue series per n gives the eigenvalue of every order
        family = [eigenvalue_series(lam, n, theta, max_order + 1)
                  for n in range(length(lam), max_rows + 1)]
        for k in range(1, max_order + 1):
            lhs = apply_I(k, poly, theta)
            ev = eigenvalue_of(k, lam, max(length(lam), 1), theta)
            ok = lhs == poly * ev
            if ok:
                ok = all(series.coefficient(k + 1) == ev
                         for series in family)
            out.append(("lam=%s k=%d" % (_fmt(lam), k), ok))
    return out


def cauchy_cases(degree, theta):
    """Degree-by-degree two-alphabet expansion of the reproducing kernel.

    For each m <= degree, compares sum over |lam| = m of
    (J_lam tensor J_lam)/norm against sum over |nu| = m of
    theta^len(nu)/z_nu * (p_nu tensor p_nu), both written in the
    power-sum tensor basis.  The left side is summed over one common
    denominator C, in Z at a numeric theta = P/Q and in Z[theta]
    otherwise: with J_lam = N_lam / E_lam, C/K_lam is the denominator of
    1/(E_lam^2 <J_lam, J_lam>) over the lcm C of all of them, and L(a, b)
    = sum_lam K_lam N_lam[a] N_lam[b].  The identity holds when every
    off-diagonal L vanishes and z_nu Q^len(nu) L(nu, nu) = P^len(nu) C.
    """
    basis = basis_for(theta)
    basis.ensure_size(degree)
    ring = _Ring(basis.theta)
    add, mul, const = ring.add, ring.mul, ring.const
    out = []
    for m in range(degree + 1):
        rows, weights = [], []
        for lam in enumerate_partitions(m):
            terms = basis.polynomial(lam).terms
            nums, den = ring.numerators(list(terms.values()))
            rows.append(sorted(zip(terms, nums)))
            weights.append(1 / (ring.scalar(mul(den, den), const(1))
                                * basis.norm(lam)))
        scales, common = ring.numerators(weights)
        lhs = {}
        for row, k in zip(rows, scales):
            for at, (key_a, ca) in enumerate(row):
                ka = mul(k, ca)
                for key_b, cb in row[at:]:
                    pair = (key_a, key_b)
                    term = mul(ka, cb)
                    acc = lhs.get(pair)
                    lhs[pair] = term if acc is None else add(acc, term)
        ok = all(not c for (a, b), c in lhs.items() if a != b)
        for nu in enumerate_partitions(m):
            n = length(nu)
            diag = lhs.get((nu, nu), const(0))
            ok = ok and mul(mul(const(z_lambda(nu)), ring.power(ring.Q, n)),
                            diag) == mul(ring.power(ring.P, n), common)
        out.append(("degree=%d" % m, ok))
    return out


def stochasticity_cases(max_rows, max_size, theta, beta=Fraction(2, 3)):
    """Single-beta transition rows sum to exactly one with zero deficit."""
    rho = Specialization.single_beta(beta)
    out = []
    for n in range(1, max_rows + 1):
        cfg = WalkConfig(n=n, theta=theta, rho=rho)
        for lam in enumerate_all_partitions(max_size, max_length=n):
            row = transition_row(lam, cfg)
            ok = row.tail_deficit == 0 and row.total_mass() == 1
            out.append(("N=%d lam=%s" % (n, _fmt(lam)), ok))
    return out


def _random_symbol(rng):
    while True:
        reach = rng.randint(1, 2)
        symbol = {}
        for m in range(-reach, reach + 1):
            value = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            if value:
                symbol[m] = value
        if symbol:
            return symbol


def toeplitz_cases(symbols, order, seed):
    """Resolvent corner vs exp-log factorization for random finite symbols."""
    rng = random.Random(seed)
    out = []
    for i in range(symbols):
        symbol = _random_symbol(rng)
        ok, _report = toeplitz_wienerhopf_check(symbol, order)
        label = "symbol=%d reach=%d" % (i, max(abs(m) for m in symbol))
        out.append((label, ok))
    return out


def moment_roundtrip_cases(count, max_index, seed):
    """Empirical -> principal-part -> empirical moment round trips."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(1, 5)
        c = [Fraction(rng.randint(-8, 8), rng.randint(1, 6))
             for _ in range(max_index)]
        c_pp = [pp_moments_from_empirical(c[:k], n, k)
                for k in range(1, max_index + 1)]
        back = []
        for k in range(1, max_index + 1):
            back.append(empirical_moments_from_pp(c_pp[:k], back[:], n, k))
        out.append(("trip=%d n=%d" % (i, n), back == c))
    return out
