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
from .operators import apply_I, eigenvalue_of
from .partitions import (enumerate_all_partitions, enumerate_partitions,
                         length, z_lambda)
from .scalars import as_exact
from .specializations import Specialization


def _fmt(lam):
    return "(" + ",".join(str(p) for p in lam) + ")"


def eigenrelation_cases(max_size, max_rows, max_order, theta):
    """apply_I(k, J_lam) == eigenvalue * J_lam, and the eigenvalue family
    is consistent across alphabet sizes n = len(lam)..max_rows."""
    out = []
    for lam in enumerate_all_partitions(max_size, max_length=max_rows):
        poly = jack_polynomial(lam, theta)
        for k in range(1, max_order + 1):
            lhs = apply_I(k, poly, theta)
            ev = eigenvalue_of(k, lam, max(length(lam), 1), theta)
            ok = lhs == poly * ev
            if ok:
                ok = all(eigenvalue_of(k, lam, n, theta) == ev
                         for n in range(length(lam), max_rows + 1))
            out.append(("lam=%s k=%d" % (_fmt(lam), k), ok))
    return out


def cauchy_cases(max_degree, theta):
    """Degree-by-degree two-alphabet expansion of the reproducing kernel.

    For each m <= max_degree, compares sum over |lam| = m of
    (J_lam tensor J_lam)/norm against sum over |nu| = m of
    theta^len(nu)/z_nu * (p_nu tensor p_nu), both written in the
    power-sum tensor basis.
    """
    th = as_exact(theta)
    basis = basis_for(theta)
    basis.ensure_size(max_degree)
    out = []
    for m in range(max_degree + 1):
        lhs = {}
        for lam in enumerate_partitions(m):
            poly = basis.polynomial(lam)
            inv_norm = 1 / basis.norm(lam)
            for key_a, ca in poly.terms.items():
                for key_b, cb in poly.terms.items():
                    pair = (key_a, key_b)
                    val = lhs.get(pair, 0) + ca * cb * inv_norm
                    if val:
                        lhs[pair] = val
                    else:
                        lhs.pop(pair, None)
        rhs = {}
        for nu in enumerate_partitions(m):
            rhs[(nu, nu)] = th ** length(nu) / z_lambda(nu)
        out.append(("degree=%d" % m, lhs == rhs))
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


def toeplitz_cases(count, max_power, seed):
    """Resolvent corner vs exp-log factorization for random finite symbols."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        symbol = _random_symbol(rng)
        ok, _report = toeplitz_wienerhopf_check(symbol, max_power)
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
