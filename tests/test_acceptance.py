"""Acceptance suite: twelve end-to-end checks, one printed line each.

Run as `pytest tests/test_acceptance.py -s` to see the per-criterion
pass/fail lines; every tolerance is pinned here, and exact checks use
exact arithmetic with no tolerance at all.
"""

import functools
import math
import random
from fractions import Fraction

from jackwalk.asymptotics import (
    build_V,
    limit_covariance,
    limit_moment,
    packed_limit_moments,
    profile_series,
    walk_limit_data,
)
from jackwalk.dynamics import WalkConfig, path_statistics, step_mass_law
from jackwalk.jack import (
    jack_norm,
    jack_polynomial,
    log_derivative_at_unity,
    lr_expand,
    principal_value,
)
from jackwalk.measures import (
    MeasureOnYoung,
    empirical_density,
    generating_function,
    pp_measure,
)
from jackwalk.operators import (
    eigenvalue_of,
    f_cumulant,
    joint_moment_via_operators,
)
from jackwalk.partitions import enumerate_all_partitions, weight
from jackwalk.psum import scalar_product
from jackwalk.scalars import THETA
from jackwalk.specializations import Specialization, specialize_ones
from jackwalk.verify import (
    cauchy_cases,
    eigenrelation_cases,
    moment_roundtrip_cases,
    stochasticity_cases,
    toeplitz_cases,
)

SEED = 20260823
one = Fraction(1)


def report(num, ok, detail):
    line = "criterion %2d: %s  %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def prod(values):
    out = Fraction(1)
    for v in values:
        out = out * v
    return out


@functools.lru_cache(maxsize=1)
def measure_panel():
    """50 random finitely supported measures on diagrams with <= 3 rows,
    with their generating functions and particle measures precomputed.
    Shared by criteria 2 and 11."""
    rng = random.Random(SEED)
    theta = Fraction(1, 2)
    panel = []
    for _ in range(50):
        n = rng.randint(1, 3)
        pool = [lam for lam in enumerate_all_partitions(6, max_length=n)]
        support = rng.sample(pool, min(rng.randint(1, 6), len(pool)))
        raw = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
               for _ in support]
        total = sum(raw)
        M = MeasureOnYoung(n, {lam: w / total
                               for lam, w in zip(support, raw)})
        F = generating_function(M, theta)
        pp = {lam: pp_measure(lam, n, theta) for lam in M.support}
        panel.append((n, theta, M, F, pp))
    return panel


def klists(max_total):
    """All nonincreasing positive integer lists with sum <= max_total."""
    out = []

    def rec(prefix, remaining, cap):
        for k in range(1, min(remaining, cap) + 1):
            cur = prefix + [k]
            out.append(cur)
            rec(cur, remaining - k, k)

    rec([], max_total, max_total)
    return out


def test_criterion_01_eigenrelations():
    total = 0
    ok = True
    for theta in (Fraction(1, 2), one, Fraction(2), Fraction(3, 7)):
        cases = eigenrelation_cases(6, 5, 5, theta)
        total += len(cases)
        ok = ok and all(good for _, good in cases)
    report(1, ok, "%d exact eigenrelation cases over 4 theta values" % total)


def test_criterion_02_moment_extraction_matches_enumeration():
    lists = klists(5)
    checked = 0
    ok = True
    for n, theta, M, F, pp in measure_panel():
        for ks in lists:
            direct = sum((w * prod(pp[lam].moment(k) for k in ks)
                          for lam, w in M.support.items()), Fraction(0))
            ok = ok and joint_moment_via_operators(F, n, theta, ks) == direct
            checked += 1
    report(2, ok, "%d joint moments on 50 random measures, exact" % checked)


def test_criterion_03_norm_and_principal_value_formulas():
    checked = 0
    ok = True
    for lam in enumerate_all_partitions(6):
        poly = jack_polynomial(lam, THETA)
        ok = ok and jack_norm(lam, THETA) == scalar_product(poly, poly, THETA)
        for n in range(len(lam), 6):
            ok = ok and principal_value(lam, n, THETA) == \
                specialize_ones(poly, n)
            checked += 1
    report(3, ok, "%d symbolic norm/evaluation identities" % checked)


def test_criterion_04_cauchy_expansion():
    cases = cauchy_cases(6, THETA)
    report(4, all(good for _, good in cases),
           "%d symbolic kernel degrees" % len(cases))


def test_criterion_05_transition_rows_stochastic():
    total = 0
    ok = True
    for theta in (Fraction(1, 2), one, Fraction(2)):
        cases = stochasticity_cases(3, 4, theta)
        total += len(cases)
        ok = ok and all(good for _, good in cases)
    report(5, ok, "%d rows sum to one exactly over 3 theta values" % total)


def test_criterion_06_moment_round_trips():
    cases = moment_roundtrip_cases(50, 6, SEED)
    report(6, all(good for _, good in cases),
           "%d exact empirical/particle round trips" % len(cases))


def test_criterion_07_wiener_hopf():
    cases = toeplitz_cases(20, 6, SEED)
    report(7, all(good for _, good in cases),
           "%d random symbols factor exactly" % len(cases))


def test_criterion_08_packed_limit_moments():
    ok = True
    details = []
    for k in range(1, 7):
        target = limit_moment(k, 0, one)
        ok = ok and target == Fraction((-1) ** k, k + 1)
        errs = []
        for n in (4, 8, 16, 32):
            err = abs(empirical_density((), n, 1).moment(k) - target)
            errs.append((n, err))
        ok = ok and all(errs[i][1] > errs[i + 1][1] for i in range(3))
        c_fit = max(n * err for n, err in errs)
        ok = ok and all(err <= c_fit / n for n, err in errs)
        details.append("C_%d=%s" % (k, c_fit))
    report(8, ok, "exact limits, errors decrease, fitted bounds: "
           + " ".join(details))


def test_criterion_09_variance_matches_limit_covariance():
    data = walk_limit_data(Specialization.single_beta(1), one, [one],
                           packed_limit_moments(17), 8)
    limit = limit_covariance(1, 1, data.U[0], build_V(data), one)
    samples = 100000
    ok = True
    mc_gaps = []
    exact_gaps = []
    for n in (8, 16, 32):
        cfg = WalkConfig(n, one, Specialization.single_beta(1),
                         seed=SEED + n)
        stats = path_statistics(cfg, n, samples, [1], times=[n])
        assert stats.method == "mass-marginal"
        # the statistic at t = n is the mass of n independent steps over
        # n: with kappa the step law's cumulants, its variance is
        # n kappa_2 / n^2 and its fourth central moment is
        # (n kappa_4 + 3 (n kappa_2)^2) / n^4, which give the exact
        # standard error of the sample variance of m paths
        law = step_mass_law(n, 1)
        mean = sum((Fraction(d) * p for d, p in law), Fraction(0))
        mu2, mu4 = (sum(((d - mean) ** j * p for d, p in law), Fraction(0))
                    for j in (2, 4))
        kappa2, kappa4 = mu2, mu4 - 3 * mu2 ** 2
        sigma2 = n * kappa2 / n ** 2
        fourth = (n * kappa4 + 3 * (n * kappa2) ** 2) / n ** 4
        m = samples
        se = math.sqrt(fourth / m - sigma2 ** 2 * (m - 3) / (m * (m - 1)))
        var = stats.variance((n, 1))
        ok = ok and abs(var - float(limit)) < 4 * se
        mc_gaps.append((n, abs(var - float(limit))))
        exact_gaps.append(abs(sigma2 - limit))
    ok = ok and all(exact_gaps[i] >= exact_gaps[i + 1] for i in range(2))
    report(9, ok, "limit %s; 10^5-path gaps within 4 SE: %s; exact-law "
           "gaps %s nonincreasing" % (
               limit,
               " ".join("N=%d:%.2e" % (n, g) for n, g in mc_gaps),
               [str(g) for g in exact_gaps]))


def test_criterion_10_staircase_log_derivative():
    moments = [Fraction(1 + (-1) ** k, 2 * (k + 1)) for k in range(1, 9)]
    # H'(1) = P(1), for P(x) = x H'(x) the start's profile series
    target = profile_series(moments, 8).coefficient(0)
    ok = target == Fraction(1, 2)
    errs = []
    for n in range(3, 9):
        staircase = tuple(range(n, 0, -1))
        stat = log_derivative_at_unity(staircase, n, one, [(1, 1)]) \
            * Fraction(1, n)
        errs.append((n, abs(stat - target)))
    ok = ok and all(errs[i][1] > errs[i + 1][1] for i in range(len(errs) - 1))
    report(10, ok, "target %s; |error| strictly decreasing N=3..8: %s" % (
        target, " ".join("N=%d:%s" % (n, e) for n, e in errs)))


def test_criterion_11_second_cumulants():
    pairs = [(k, l) for k in range(1, 5) for l in range(k, 5) if k + l <= 5]
    checked = 0
    ok = True
    for n, theta, M, F, pp in measure_panel():
        for k, l in pairs:
            m_k = sum((w * pp[lam].moment(k)
                       for lam, w in M.support.items()), Fraction(0))
            m_l = sum((w * pp[lam].moment(l)
                       for lam, w in M.support.items()), Fraction(0))
            m_kl = sum((w * pp[lam].moment(k) * pp[lam].moment(l)
                        for lam, w in M.support.items()), Fraction(0))
            joint = joint_moment_via_operators(F, n, theta, [k, l])
            single_k = joint_moment_via_operators(F, n, theta, [k])
            single_l = joint_moment_via_operators(F, n, theta, [l])
            ok = ok and joint - single_k * single_l == m_kl - m_k * m_l
            ev_k = {lam: eigenvalue_of(k, lam, n, theta)
                    for lam in M.support}
            ev_l = {lam: eigenvalue_of(l, lam, n, theta)
                    for lam in M.support}
            e_k = sum((w * ev_k[lam] for lam, w in M.support.items()),
                      Fraction(0))
            e_l = sum((w * ev_l[lam] for lam, w in M.support.items()),
                      Fraction(0))
            e_kl = sum((w * ev_k[lam] * ev_l[lam]
                        for lam, w in M.support.items()), Fraction(0))
            ok = ok and f_cumulant(F, n, theta, [k, l]) == e_kl - e_k * e_l
            checked += 1
    report(11, ok, "%d covariance identities on the criterion-2 measures, "
           "exact" % checked)


def test_criterion_12_structure_constant_positivity():
    shapes = [lam for lam in enumerate_all_partitions(5) if lam]
    checked = 0
    negatives = 0
    for theta in (Fraction(1, 2), one, Fraction(2)):
        for i, mu in enumerate(shapes):
            for eta in shapes[i:]:
                if weight(mu) + weight(eta) > 6:
                    continue
                for value in lr_expand(mu, eta, theta).values():
                    checked += 1
                    if value < 0:
                        negatives += 1
    report(12, negatives == 0 and checked > 0,
           "%d structure constants over 3 theta values, %d negative"
           % (checked, negatives))
