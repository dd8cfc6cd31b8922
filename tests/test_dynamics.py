"""Markov growth dynamics: rows, sampling, exact evolution, statistics."""

import contextlib
import gc
import hashlib
import io
import itertools
import math
import random
import sys
import tracemalloc
import types
from fractions import Fraction

import numpy
import pytest
from hypothesis import example, given, settings, strategies as st

from jackwalk import _steppure, dynamics, jack
from jackwalk._steppure import bernoulli_draw, bernoulli_row
from jackwalk.dynamics import (
    PathStats,
    WalkConfig,
    exact_evolve,
    height_function,
    path_seed,
    path_statistics,
    sample_path,
    scaled_moment,
    step_mass_law,
    transition_row,
)
from jackwalk.errors import DeficitError, ResourceLimitError, ShapeError
from jackwalk.jack import principal_value, skew_jack
from jackwalk.measures import MeasureOnYoung, particle_locations
from jackwalk.partitions import (contains, enumerate_all_partitions, length,
                                 make_partition)
from jackwalk.psum import scalar_product
from jackwalk.scalars import THETA, is_zero
from jackwalk.specializations import (Specialization, SpecializationUnion,
                                      specialize)
from jackwalk.verify import stochasticity_cases

half = Fraction(1, 2)
one = Fraction(1)
two = Fraction(2)
b23 = Specialization.single_beta(Fraction(2, 3))
THETAS = [half, one, two, Fraction(3, 7)]


def test_config_validation():
    cfg = WalkConfig(3, one, b23, initial=(2, 1), seed=5)
    assert cfg.n == 3 and cfg.initial == (2, 1)
    with pytest.raises(ShapeError):
        WalkConfig(1, one, b23, initial=(1, 1))
    with pytest.raises(ValueError):
        WalkConfig(2, one, b23, seed=-1)
    with pytest.raises(ValueError):
        WalkConfig(2, one, b23, seed=2 ** 64)
    for theta in (Fraction(0), Fraction(-1)):
        with pytest.raises(ValueError):
            WalkConfig(2, theta, b23)
    # a fractional copy of an atom is not a positive specialization: at
    # N = 2 the beta = 1/2, scale = 1/2 row from () gives (2,) weight -1/16
    for rho in (b23.scaled(half), Specialization.ones(1).scaled(half),
                SpecializationUnion([b23, b23.scaled(Fraction(3, 2))])):
        with pytest.raises(ValueError):
            WalkConfig(2, one, rho)
    WalkConfig(2, one, b23.scaled(3))
    WalkConfig(2, THETA, b23)


def test_config_is_a_validating_value():
    cfg = WalkConfig(3, one, b23, initial=[2, 1, 0], seed=5)
    assert cfg.initial == (2, 1)
    same = WalkConfig(3, one, b23, (2, 1), 5)
    assert cfg == same and hash(cfg) == hash(same)
    assert cfg != WalkConfig(3, one, b23, (2, 1), 6)
    # a tuple: equal to the plain tuple of its fields
    assert cfg == (3, one, b23, (2, 1), 5)
    with pytest.raises(AttributeError):
        cfg.seed = 6
    with pytest.raises(AttributeError):
        cfg.extra = 6
    # positional construction validates like keyword construction
    with pytest.raises(ValueError):
        WalkConfig(cfg.n, cfg.theta, cfg.rho, cfg.initial, 2 ** 64)


def test_fractional_gamma_scale_still_samples():
    rho = Specialization.plancherel(Fraction(1, 64)).scaled(half)
    cfg = WalkConfig(1, one, rho, seed=3)
    stats = path_statistics(cfg, 2, 4, [1])
    assert stats.count == 4


def test_config_json_round_trip():
    cfg = WalkConfig(3, Fraction(3, 7), b23, initial=(2, 1), seed=11)
    back = WalkConfig.from_json(cfg.to_json())
    assert back == cfg
    u = WalkConfig(2, one, SpecializationUnion([b23, Specialization.ones(1)]))
    back = WalkConfig.from_json(u.to_json())
    assert back.rho.p_value(2, one) == u.rho.p_value(2, one)


def test_transition_row_frozen():
    cfg = WalkConfig(1, two, Specialization.single_beta(Fraction(3)))
    row = transition_row((), cfg)
    assert row.support == {(): Fraction(1, 7), (1,): Fraction(6, 7)}
    assert row.tail_deficit == 0


def test_transition_row_symbolic():
    cfg = WalkConfig(1, THETA, Specialization.single_beta(Fraction(3)))
    row = transition_row((), cfg)
    assert row.support == {(): 1 / (1 + 3 * THETA),
                           (1,): 3 * THETA / (1 + 3 * THETA)}


def test_transition_row_zero_rho_is_delta():
    cfg = WalkConfig(2, one, Specialization.zero())
    assert transition_row((2, 1), cfg).support == {(2, 1): 1}


def test_transition_row_rejects_tall_states():
    cfg = WalkConfig(2, one, b23)
    with pytest.raises(ShapeError):
        transition_row((1, 1, 1), cfg)


def test_rows_are_stochastic():
    for th in (half, two):
        assert all(ok for _, ok in stochasticity_cases(2, 3, th))
    cfg = WalkConfig(3, Fraction(3, 7), b23)
    row = transition_row((2, 2), cfg)
    assert sum(row.support.values()) == 1
    assert all(contains(mu, (2, 2)) for mu in row.support)


def test_steps_add_vertical_strips():
    cfg = WalkConfig(3, one, Specialization.single_beta(one))
    row = transition_row((3, 1), cfg)
    base = (3, 1, 0)
    for mu in row.support:
        assert contains(mu, (3, 1))
        padded = mu + (0,) * (3 - len(mu))
        assert all(padded[i] - base[i] in (0, 1) for i in range(3))
        assert length(mu) <= 3


@contextlib.contextmanager
def _table_route(monkeypatch):
    """Send every row through the table route; yields the pairings
    <J_mu, J_lam H_d> it takes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return scalar_product(*args)

    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_kernel_args", lambda cfg: None)
        patch.setattr(dynamics, "scalar_product", counted)
        yield calls


def _skew_row(lam, cfg):
    """The table row built skew function by skew function: each weight
    is (j_lam/j_mu) (PV(mu)/PV(lam)) J_{mu/lam}(rho) / H(rho; 1^N), the
    skew Jack function specialized at rho."""
    theta = cfg.theta
    kernel, cap, _ = dynamics._table_step(cfg)
    basis = jack.basis_for(theta)
    norm_lam = basis.norm(lam)
    pv_lam = principal_value(lam, cfg.n, theta)
    weights = {}
    total = Fraction(0)
    for mu in enumerate_all_partitions(sum(lam) + cap, cfg.n):
        value = specialize(skew_jack(mu, lam, theta), cfg.rho, theta)
        if is_zero(value):
            continue
        w = (norm_lam / basis.norm(mu)) \
            * (principal_value(mu, cfg.n, theta) / pv_lam) * value / kernel
        weights[mu] = w
        total = total + w
    return MeasureOnYoung(cfg.n, weights, tail_deficit=1 - total)


#: (step, cap or None, diagrams): a step of unbounded reach is cut at the
#: given cap, which keeps its tables small; both routes read the same cap
TABLE_STEPS = {
    "alpha": (WalkConfig(3, half, Specialization.single_alpha(
        Fraction(1, 10))), 4, [(), (1,), (2, 1)]),
    "gamma": (WalkConfig(2, one, Specialization.plancherel(
        Fraction(1, 4))), 5, [(), (1,), (2, 1), (3, 1)]),
    "union": (WalkConfig(3, one, SpecializationUnion(
        [Specialization.single_beta(half),
         Specialization.single_beta(Fraction(1, 3))])), None,
        [(), (1,), (2, 1), (6, 3)]),
    "scale-2": (WalkConfig(3, half, Specialization.single_beta(half)
                           .scaled(2)), None, [(), (2, 1), (4, 1)]),
    "mixed": (WalkConfig(2, two, Specialization(
        gamma=Fraction(1, 3), alphas=[Fraction(1, 5)], betas=[half])), 4,
        [(), (1,), (2, 1)]),
    "symbolic": (WalkConfig(3, THETA, Specialization.single_beta(half)
                            .scaled(2)), None, [(), (1,), (2, 1)]),
    "zero": (WalkConfig(3, half, Specialization.zero()), None, [(), (2, 1)]),
}


@pytest.mark.parametrize("step", TABLE_STEPS)
def test_table_rows_equal_the_skew_rows(monkeypatch, step):
    # one Cauchy product J_lam H_d per added size d gives every skew value
    cfg, cap, lams = TABLE_STEPS[step]
    if cap is not None:
        assert dynamics._table_step(cfg)[1] > cap
        monkeypatch.setattr(dynamics, "_TABLE_STEPS", {})
        monkeypatch.setattr(dynamics, "_step_cap", lambda cfg, kernel: cap)
    for lam in lams:
        row = transition_row(lam, cfg)
        oracle = _skew_row(lam, cfg)
        assert row.support == oracle.support, lam
        assert row.tail_deficit == oracle.tail_deficit, lam
    if cap is not None:
        assert row.tail_deficit > 0
    else:
        assert row.tail_deficit == 0


def test_table_step_is_built_once(monkeypatch):
    # H(rho; 1^N), the cap and H_0..H_cap belong to the step, not to the
    # diagram: rows at several diagrams, or every row of a two-step
    # exact_evolve, build one kernel per component and two series exps,
    # the mass law's (_step_cap) and the Cauchy kernel's
    kernels, exps = [], []

    def spy(calls, fn):
        def counted(*args):
            calls.append(args)
            return fn(*args)
        return counted

    monkeypatch.setattr(dynamics, "reproducing_kernel",
                        spy(kernels, dynamics.reproducing_kernel))
    monkeypatch.setattr(dynamics.TruncSeries, "exp",
                        spy(exps, dynamics.TruncSeries.exp))
    alpha = WalkConfig(2, half, Specialization.single_alpha(Fraction(1, 64)))
    union = WalkConfig(2, half, SpecializationUnion(
        [Specialization.plancherel(Fraction(1, 64)),
         Specialization.single_beta(Fraction(1, 3))]))
    start = MeasureOnYoung(2, {(): one})
    for cfg, components, rows in (
            (alpha, 1, lambda: [transition_row(lam, alpha)
                                for lam in [(), (1,), (2, 1), (3, 1)]]),
            (union, 2, lambda: exact_evolve(start, union, 2))):
        monkeypatch.setattr(dynamics, "_TABLE_STEPS", {})
        del kernels[:], exps[:]
        assert len(rows()[-1].support) > 1
        assert len(kernels) == components and len(exps) == 2, cfg.rho
        assert list(dynamics._TABLE_STEPS) == [cfg[:3]]


@pytest.mark.parametrize("b", [Fraction(2, 3), one, Fraction(5, 2)],
                         ids=["b2_3", "b1", "b5_2"])
@pytest.mark.parametrize("lam", [(), (1,), (2, 1), (3, 1), (2, 2, 1)],
                         ids=["empty", "1", "2.1", "3.1", "2.2.1"])
def test_fast_row_matches_general_route(monkeypatch, lam, b):
    # the table route (skew Jack functions) is the exact oracle for the step
    # kernel, at each theta and N below
    for theta, n in itertools.product(THETAS, (3, 4)):
        cfg = WalkConfig(n, theta, Specialization.single_beta(b))
        fast = transition_row(lam, cfg)
        with _table_route(monkeypatch) as calls:
            general = transition_row(lam, cfg)
        assert calls, (theta, n)
        assert fast.support == general.support, (theta, n)
        assert fast.tail_deficit == general.tail_deficit == 0


def test_exact_evolve_matches_table_route(monkeypatch):
    cfg = WalkConfig(4, half, b23)
    start = MeasureOnYoung(4, {(): one})
    fast = exact_evolve(start, cfg, 2)
    with _table_route(monkeypatch) as calls:
        general = exact_evolve(start, cfg, 2)
    assert calls
    assert [m.support for m in fast] == [m.support for m in general]
    assert [m.tail_deficit for m in fast] == \
        [m.tail_deficit for m in general] == [0, 0, 0]


def test_single_beta_walk_builds_no_jack_table(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a Jack table was built")

    for module in (dynamics, jack):
        monkeypatch.setattr(module, "basis_for", no_table)
    cfg = WalkConfig(4, half, Specialization.single_beta(one), seed=5)
    stats = path_statistics(cfg, 4, 20, [1, 2])
    assert stats.count == 20 and stats.method == "rows"


#: sha256 of repr(bernoulli_row(lam, n, b_num, b_den)) at theta = 1,
#: recorded before the kernel took a general theta = p/q
THETA_ONE_KERNEL = {
    ((), 1, 1, 1):
        "09b189f11e6ac35766ac86fde2f71f5be7e06566aa415f94c54b08366f84efe4",
    ((), 8, 1, 1):
        "a96b948dcd855388aa2a30a1773a8ecf956ec4f03c1ed1e9b34733cb0c348a4d",
    ((2, 1), 4, 1, 1):
        "b73940e61d26e027fea1cb2b3b7974e270e19922366ff908adfc5ef15390f40a",
    ((2, 2, 1), 6, 1, 1):
        "30e7970b883a57a46d3761765e0d7b15658fc9d1ea8fecbb20fd30279707cd28",
    ((4, 2, 2, 1), 7, 1, 1):
        "42f6c1a0b96fd0a25f91d0b40f6847f6d4b103cf278ccaa14e70d092e90a73b0",
    ((5, 3, 3, 1, 1), 8, 1, 1):
        "05a00722147433966aa0b1edf21e625beed5cf2c57ed7fc70b2fbee4671040de",
    ((3, 3, 3, 3, 3, 3, 3, 3), 8, 1, 1):
        "3711af23558b18918066bd4a2a6c8fa7a7a085a6393be725219bbc3d2ac3441b",
    ((6, 5, 4, 3, 2, 1), 8, 1, 1):
        "dea91dca8ea99a47ec2da6822090d20d48a2adccdb56447a0e0f413e8aa86c93",
    ((), 1, 2, 3):
        "065758909eae8faa3d2051c2c2d3ed5461fd655c7a34fa2400ef53de90d13c99",
    ((), 8, 2, 3):
        "80b3661d4ff835a7e052b935a982fbc3715315dbad48870629a0fc9e5a92e420",
    ((2, 1), 4, 2, 3):
        "b1d6bd1460eee9c03fd005d4f3518b91f042dc222037a8ef811604d20932940f",
    ((2, 2, 1), 6, 2, 3):
        "5ddcff636de3d6fb71fb7db482e0502b9fbb37af7bce0dbf18b46cc3852050b9",
    ((4, 2, 2, 1), 7, 2, 3):
        "2d44a31a2405490d7f2f4665b4bd4ad9d250ab3acc776259ce93d95565d9eeb2",
    ((5, 3, 3, 1, 1), 8, 2, 3):
        "107a03ded7de945204624136e717d0ee105eb1d816254a5835164b1cf92b9ecb",
    ((3, 3, 3, 3, 3, 3, 3, 3), 8, 2, 3):
        "fb6d0f856893ccb8097cc5d4cdbfd7fb105780a831e6a75211074155efe55a55",
    ((6, 5, 4, 3, 2, 1), 8, 2, 3):
        "2b642b325d1e5aa7c0d4450f489da90702c8c7d65a3c180c01ffc9014303f075",
}


@pytest.mark.parametrize("case", sorted(THETA_ONE_KERNEL), ids=str)
def test_theta_one_kernel_output_is_unchanged(case):
    lam, n, b_num, b_den = case
    out = bernoulli_row(lam, n, b_num, b_den)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == \
        THETA_ONE_KERNEL[case]


@st.composite
def beta_rows(draw, thetas):
    theta = draw(st.sampled_from(thetas))
    n = draw(st.integers(0, 6))
    parts = draw(st.lists(st.integers(1, 5), max_size=n))
    b = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    return theta, n, tuple(sorted(parts, reverse=True)), b


def _vertical_strips(lam, n):
    padded = lam + (0,) * (n - len(lam))
    out = set()
    for added in itertools.product((0, 1), repeat=n):
        mu = [p + a for p, a in zip(padded, added)]
        if all(mu[i] >= mu[i + 1] for i in range(n - 1)):
            out.add(tuple(p for p in mu if p))
    return out


def _assert_strip_row(row, lam, n):
    """A single-beta row: exactly the vertical strips of lam within n rows,
    each with positive weight, summing to exactly 1 with no deficit."""
    assert set(row.support) == _vertical_strips(lam, n)
    assert all(w > 0 for w in row.support.values())
    assert sum(row.support.values()) == 1
    assert row.tail_deficit == 0


@settings(max_examples=60, deadline=None)
@given(beta_rows([one]))
def test_unit_beta_row_is_vertical_strips(case):
    theta, n, lam, b = case
    row = transition_row(lam, WalkConfig(n, theta,
                                         Specialization.single_beta(b)))
    _assert_strip_row(row, lam, n)


@settings(max_examples=60, deadline=None)
@given(beta_rows(THETAS))
def test_kernel_rows_hold_the_trusted_invariant(case):
    # the kernel emits canonical keys and positive weights, so the
    # validating constructor that its rows pass through changes nothing
    theta, n, lam, b = case
    row = transition_row(lam, WalkConfig(n, theta,
                                         Specialization.single_beta(b)))
    checked = MeasureOnYoung(n, dict(row.support))
    assert checked.support == row.support
    assert checked.tail_deficit == row.tail_deficit == 0
    assert type(row.tail_deficit) is Fraction
    for mu, w in row.support.items():
        assert make_partition(mu) == mu and len(mu) <= n
        assert type(w) is Fraction and w > 0
    # the kernel lists the strips in increasing order
    assert list(row.support) == sorted(row.support)


def test_zero_beta_row_is_a_point_mass():
    for theta, lam in itertools.product(THETAS, ((), (2, 1), (3, 3, 1))):
        row = transition_row(lam, WalkConfig(3, theta,
                                             Specialization.single_beta(0)))
        assert row.support == {lam: one}


@settings(max_examples=60, deadline=None)
@given(beta_rows([half, two, Fraction(3, 7)]))
def test_beta_row_is_vertical_strips_at_general_theta(case):
    theta, n, lam, b = case
    cfg = WalkConfig(n, theta, Specialization.single_beta(b))
    _assert_strip_row(transition_row(lam, cfg), lam, n)


def test_step_mass_law_binomial():
    law = dict(step_mass_law(3, Fraction(2, 3)))
    assert law == {0: Fraction(27, 125), 1: Fraction(54, 125),
                   2: Fraction(36, 125), 3: Fraction(8, 125)}
    # q = theta b / (1 + theta b) = 1/4
    assert dict(step_mass_law(3, Fraction(2, 3), half)) == \
        {0: Fraction(27, 64), 1: Fraction(27, 64), 2: Fraction(9, 64),
         3: Fraction(1, 64)}


@pytest.mark.parametrize("theta", THETAS, ids=str)
def test_step_mass_law_is_the_row_mass_by_size(theta):
    # Pieri: at every theta the strips of size d weigh C(N, d) q^d (1-q)^(N-d),
    # whatever the current diagram
    for lam, b in itertools.product(((), (2, 1), (3, 1), (2, 2, 1),
                                     (3, 3, 1)),
                                    (one, Fraction(2, 3))):
        for n in range(length(lam), 5):
            row = transition_row(lam, WalkConfig(
                n, theta, Specialization.single_beta(b)))
            by_size = {}
            for mu, w in row.support.items():
                d = sum(mu) - sum(lam)
                by_size[d] = by_size.get(d, 0) + w
            law = {d: p for d, p in step_mass_law(n, b, theta) if p}
            assert by_size == law, (lam, n, b)


def _fraction_det(matrix):
    """Determinant by elimination over Fractions, with row swaps."""
    rows = [[Fraction(a) for a in row] for row in matrix]
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        top = rows[c]
        det *= top[c]
        for r in range(c + 1, len(rows)):
            ratio = rows[r][c] / top[c]
            rows[r] = [a - ratio * t for a, t in zip(rows[r], top)]
    return det


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(THETAS), st.sampled_from([one, Fraction(2, 3),
                                                 Fraction(5, 2)]),
       st.integers(0, 6), st.lists(st.integers(1, 5), max_size=6))
def test_single_beta_step_is_determinantal(theta, b, n, parts):
    # the rows S that grow have P(S) = w^|S| det T_SS / (1 + w)^N, for
    # w = theta b, y_i = q lam_i - p i at theta = p/q and T_ij = l_j(y_i + p),
    # l_j the Lagrange basis at the nodes y; a set that is not a strip gets
    # det T_SS = 0
    lam = tuple(sorted(parts, reverse=True))[:n]
    padded = list(lam) + [0] * (n - len(lam))
    p, q = theta.numerator, theta.denominator
    w = theta * b
    ys = [q * part - p * i for i, part in enumerate(padded)]

    def lagrange(j, x):
        out = Fraction(1)
        for k, yk in enumerate(ys):
            if k != j:
                out *= Fraction(x - yk, ys[j] - yk)
        return out

    T = [[lagrange(j, y + p) for j in range(n)] for y in ys]
    entries, den = bernoulli_row(lam, n, b.numerator, b.denominator, p, q)
    row = {tuple(mu) + (0,) * (n - len(mu)): Fraction(num, den)
           for mu, num in entries}
    for size in range(n + 1):
        for S in itertools.combinations(range(n), size):
            grown = tuple(part + (i in S) for i, part in enumerate(padded))
            minor = _fraction_det([[T[i][j] for j in S] for i in S])
            assert w ** size * minor / (1 + w) ** n == row.get(grown, 0)
    # T is the shift by p on polynomials of degree below N: unipotent
    nil = [[T[i][j] - (i == j) for j in range(n)] for i in range(n)]
    power = nil
    for _ in range(n - 1):
        power = [[sum(a * nil[k][j] for k, a in enumerate(r))
                  for j in range(n)] for r in power]
    assert not any(any(r) for r in power)


@settings(max_examples=100, deadline=None)
@given(beta_rows(THETAS + [Fraction(9, 4), Fraction(5, 11)]),
       st.integers(0, 20))
def test_marginal_statistic_is_the_scaled_first_moment(case, cut):
    # the marginal's integer statistic after d boxes on top of lam0 is the
    # scaled first moment of any diagram with |lam0| + d boxes
    theta, n, lam, _ = case
    n = max(n, 1)  # the marginal route needs n > 0
    parts, d = list(lam), 0
    while parts and d < cut:  # lam0: lam less its last d boxes
        parts[-1] -= 1
        d += 1
        if not parts[-1]:
            parts.pop()
    cfg = WalkConfig(n, theta, Specialization.single_beta(one),
                     initial=tuple(parts))
    base, step, den = dynamics._marginal_statistic(
        dynamics._kernel_args(cfg), cfg.initial)
    assert Fraction(base + step * d, den) == scaled_moment(lam, n, theta, 1)


def _exact_laws(cfg, steps, k):
    """{t: (mean, variance, fourth central moment)} of the scaled k-th
    moment at each time, from exact_evolve."""
    start = MeasureOnYoung(cfg.n, {cfg.initial: one})
    laws = {}
    for t, measure in enumerate(exact_evolve(start, cfg, steps)):
        dist = [(scaled_moment(lam, cfg.n, cfg.theta, k), w)
                for lam, w in measure.support.items()]
        mean = sum(w * x for x, w in dist)
        laws[t] = tuple([mean] + [sum(w * (x - mean) ** j for x, w in dist)
                                  for j in (2, 4)])
    return laws


def test_marginal_route_at_theta_half_within_4_se():
    cfg = WalkConfig(4, half, b23, initial=(1,), seed=13)
    m = 4000
    stats = path_statistics(cfg, 4, m, [1])
    assert stats.method == "mass-marginal"
    for t, (mean, var, mu4) in _exact_laws(cfg, 4, 1).items():
        se_mean = math.sqrt(var / m)
        se_var = math.sqrt(max(0, mu4 / m - var * var * (m - 3)
                               / (m * (m - 1))))
        assert abs(stats.mean((t, 1)) - mean) <= 4 * se_mean + 1e-12, t
        assert abs(stats.variance((t, 1)) - var) <= 4 * se_var + 1e-12, t


@pytest.mark.parametrize("theta", [one, half], ids=str)
def test_marginal_at_subsampled_times_within_4_se(monkeypatch, theta):
    # one Binomial(N dt, q) draw per interval must keep the increments
    # independent: X_t = x0 + D_t / (theta N), with D_t the sum of t
    # independent step masses, so Cov(X_s, X_t) = Var(D_min(s,t)) / (theta N)^2
    n, m, times = 8, 25000, [0, 2, 4, 6, 8]
    cfg = WalkConfig(n, theta, b23, seed=5)
    blocks = _spy_on_add_batch(monkeypatch)
    stats = path_statistics(cfg, 8, m, [1], times=times)
    assert stats.method == "mass-marginal"
    # PathStats keeps no co-moments: the sampled covariances come from the
    # statistics themselves, one column per time
    sampled = numpy.cov(numpy.concatenate(blocks), rowvar=False)
    assert sampled.shape == (len(times), len(times))
    law = step_mass_law(n, b23.betas[0], theta)
    mu = sum(d * p for d, p in law)
    mu2, mu4 = (sum((d - mu) ** j * p for d, p in law) for j in (2, 4))
    tb = theta * b23.betas[0]
    q = tb / (1 + tb)
    assert mu2 == n * q * (1 - q)
    scale = theta * n  # one added box moves the statistic by 1/(theta N)
    x0 = scaled_moment((), n, theta, 1)
    for t in times:
        var = t * mu2 / scale ** 2
        fourth = (t * (mu4 - 3 * mu2 ** 2) + 3 * (t * mu2) ** 2) / scale ** 4
        se_mean = math.sqrt(var / m)
        se_var = math.sqrt(fourth / m - var * var * (m - 3) / (m * (m - 1)))
        assert abs(stats.mean((t, 1)) - (x0 + t * mu / scale)) \
            <= 4 * se_mean + 1e-9, t
        assert abs(stats.variance((t, 1)) - var) <= 4 * se_var + 1e-9, t

    def increment(steps):
        # centered law of the mass added by `steps` steps
        law = step_mass_law(n * steps, b23.betas[0], theta)
        return [(d - steps * mu, p) for d, p in law]

    for s, t in itertools.combinations(times, 2):
        cov = min(s, t) * q * (1 - q) * n / scale ** 2
        # (X_s - EX_s)(X_t - EX_t) = A (A + B) / (theta N)^2 for the
        # independent centered increments A over [0, s] and B over [s, t]
        second = sum(pa * pb * (a * (a + b)) ** 2
                     for a, pa in increment(s)
                     for b, pb in increment(t - s)) / scale ** 4
        se_cov = math.sqrt((second - cov ** 2) / m)
        i, j = times.index(s), times.index(t)
        assert abs(sampled[i, j] - cov) <= 4 * se_cov + 1e-9, (s, t)


def test_sample_path_reproducible():
    cfg = WalkConfig(3, one, Specialization.single_beta(one),
                     initial=(2, 1), seed=42)
    p1 = sample_path(cfg, 5)
    p2 = sample_path(cfg, 5)
    assert p1 == p2
    assert p1[0] == (2, 1) and len(p1) == 6
    other = sample_path(WalkConfig(3, one, Specialization.single_beta(one),
                                   initial=(2, 1), seed=43), 5)
    assert other != p1


def test_path_seed_spreads():
    seeds = {path_seed(7, i) for i in range(100)}
    assert len(seeds) == 100
    assert all(0 <= s < 2 ** 64 for s in seeds)
    assert path_seed(7, 3) != path_seed(8, 3)


def test_exact_evolve_two_steps():
    cfg = WalkConfig(1, one, Specialization.single_beta(one))
    seq = exact_evolve(MeasureOnYoung(1, {(): one}), cfg, 2)
    assert seq[1].support == {(): half, (1,): half}
    assert seq[2].support == {(): Fraction(1, 4), (1,): half,
                              (2,): Fraction(1, 4)}


def test_exact_evolve_drops_cancelled_weights():
    # a signed start: the two rows' mass on (1,) cancels exactly
    cfg = WalkConfig(1, one, Specialization.single_beta(one))
    start = MeasureOnYoung(1, {(): one, (1,): -one}, tail_deficit=half)
    after = exact_evolve(start, cfg, 1)[1]
    assert after.support == {(): half, (2,): -half}
    assert after.tail_deficit == half


def test_exact_evolve_semigroup():
    cfg = WalkConfig(2, one, b23)
    after_two = exact_evolve(MeasureOnYoung(2, {(1,): one}), cfg, 2)[2]
    doubled = WalkConfig(2, one, SpecializationUnion([b23, b23]))
    one_big = transition_row((1,), doubled)
    assert after_two.support == one_big.support


def _no_measure_rows(*args):
    raise AssertionError("transition_row called on the step kernel's route")


def test_row_cache_resource_guard(monkeypatch):
    # a two-atom step takes the table route, whose rows the cache holds:
    # the row out of the empty diagram alone has six entries
    doubled = WalkConfig(2, one, SpecializationUnion([b23, b23]), seed=2)
    assert path_statistics(doubled, 2, 3, [1, 2]).count == 3
    monkeypatch.setattr(dynamics, "_MAX_CACHED_ENTRIES", 5)
    with pytest.raises(ResourceLimitError):
        path_statistics(doubled, 2, 3, [1, 2])
    # single-beta draws hold no rows, only the N(N+1)/2 = 3 parts of their
    # pattern at N = 2, so the bound does not stop them
    single = WalkConfig(2, one, Specialization.single_beta(one), seed=2)
    monkeypatch.setattr(dynamics, "transition_row", _no_measure_rows)
    assert path_statistics(single, 4, 3, [1, 2]).count == 3


@pytest.mark.parametrize("initial", [(), (1,)], ids=["push-block", "strips"])
def test_single_beta_walk_too_large_to_hold_is_refused(initial):
    # N = 2000 holds N(N+1)/2 = 2,001,000 pattern parts or minors, past
    # the bound: refused before anything is allocated
    cfg = WalkConfig(2000, one, Specialization.single_beta(one),
                     initial=initial)
    assert 2000 * 2001 // 2 > dynamics._MAX_CACHED_ENTRIES
    with pytest.raises(ResourceLimitError):
        path_statistics(cfg, 1, 1, [1, 2])
    # the k = 1 marginal holds no pattern
    assert path_statistics(cfg, 1, 1, [1]).method == "mass-marginal"


@pytest.mark.parametrize("theta", [one, half], ids=str)
def test_kernel_walk_builds_no_measures(monkeypatch, theta):
    # single-beta rows go from the step kernel's integers to the draws
    cfg = WalkConfig(4, theta, Specialization.single_beta(one), seed=4)
    monkeypatch.setattr(dynamics, "transition_row", _no_measure_rows)
    stats = path_statistics(cfg, 4, 20, [1, 2])
    assert stats.method == "rows" and stats.count == 20


def test_exact_evolve_resource_guard(monkeypatch):
    monkeypatch.setattr(dynamics, "_MAX_EVOLVE_STATES", 3)
    cfg = WalkConfig(2, one, b23)
    with pytest.raises(ResourceLimitError):
        exact_evolve(MeasureOnYoung(2, {(): one}), cfg, 4)


def test_step_truncation_leaves_pure_beta_rows_whole(monkeypatch):
    # only steps of unbounded reach are cut; a pure-beta row covers its
    # exact reach on either route, so sampling never hits a deficit
    cfg = WalkConfig(3, half, b23, seed=1)
    full = transition_row((2, 1), cfg)
    assert dynamics._table_step(cfg)[1] == 3
    assert full.tail_deficit == 0 and sum(full.support.values()) == 1
    assert len(sample_path(cfg, 4)) == 5
    with _table_route(monkeypatch) as calls:
        assert transition_row((2, 1), cfg).support == full.support
    assert calls
    doubled = SpecializationUnion([b23, b23])
    row = transition_row((1,), WalkConfig(2, half, doubled))
    assert row.tail_deficit == 0 and sum(row.support.values()) == 1
    assert max(sum(mu) for mu in row.support) == 1 + 4


class LastCell:
    """A random source, seeded or not, whose every draw is the largest,
    u = 1 - 2^-bits: it lands in the tail of any row that keeps one."""

    def __init__(self, seed=None):
        pass

    def getrandbits(self, bits):
        return (1 << bits) - 1


def test_deficit_error_on_truncated_rows(monkeypatch):
    # a gamma row keeps a tail of at most 2^-32; a draw inside it raises
    cfg = WalkConfig(2, one, Specialization.plancherel(Fraction(1, 10)),
                     seed=1)
    deficit = transition_row((), cfg).tail_deficit
    assert 0 < deficit <= dynamics.DEFAULT_DEFICIT_BOUND
    monkeypatch.setattr(dynamics, "random", types.SimpleNamespace(
        Random=LastCell))
    with pytest.raises(DeficitError):
        sample_path(cfg, 3)


def _series_coefficients(factors, order):
    """[t^0..t^order] of a product of factors, each a function d -> [t^d]."""
    out = [Fraction(1)] + [Fraction(0)] * order
    for factor in factors:
        coeffs = [factor(d) for d in range(order + 1)]
        out = [sum(out[i] * coeffs[d - i] for i in range(d + 1))
               for d in range(order + 1)]
    return out


@st.composite
def unbounded_steps(draw):
    theta = draw(st.sampled_from([half, one, two]))
    n = draw(st.integers(1, 2))
    small = [Fraction(1, 64), Fraction(1, 32)]
    gamma = draw(st.sampled_from([0] + small))
    alphas = draw(st.sampled_from([()] + [(a,) for a in small]))
    if not gamma and not alphas:
        gamma = small[0]
    rho = Specialization(gamma=gamma, alphas=alphas)
    return WalkConfig(n, theta, rho), draw(st.sampled_from([(), (1,)]))


@settings(max_examples=25, deadline=None)
@given(unbounded_steps())
def test_step_cap_is_where_the_mass_law_tail_meets_the_bound(case):
    # H(t rho; 1^N) = exp(theta N gamma t) (1 - alpha t)^(-theta N): the
    # strips of size d weigh [t^d] of it over H(rho; 1^N) at every lam, so
    # the row's deficit at the cap is the law's tail, and one size class
    # earlier that tail is still above the bound
    cfg, lam = case
    comp = cfg.rho
    s = cfg.theta * cfg.n
    factors = [lambda d: (s * comp.gamma) ** d / math.factorial(d)]
    for a in comp.alphas:
        factors.append(lambda d, a=a: a ** d * math.prod(
            s + i for i in range(d)) / math.factorial(d))
    kernel, cap, _ = dynamics._table_step(cfg)
    law = _series_coefficients(factors, cap)
    bound = dynamics.DEFAULT_DEFICIT_BOUND
    row = transition_row(lam, cfg)
    assert max(sum(mu) for mu in row.support) == sum(lam) + cap
    assert row.tail_deficit == 1 - sum(law) / kernel <= bound
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_TABLE_STEPS", {})
        patch.setattr(dynamics, "_step_cap", lambda cfg, kernel: cap - 1)
        short = transition_row(lam, cfg)
    assert short.tail_deficit == 1 - sum(law[:-1]) / kernel > bound


def test_height_function():
    assert height_function((2, 1), 3, half, Fraction(1)) == 1
    assert height_function((2, 1), 3, half, Fraction(0)) == 2
    assert height_function((2, 1), 3, half, Fraction(-1)) == 3
    assert height_function((2, 1), 3, half, Fraction(2)) == 0


def test_scaled_moment():
    assert scaled_moment((2, 1), 2, one, 1) == 1
    assert scaled_moment((2, 1), 2, one, 2) == 1
    assert scaled_moment((), 2, one, 1) == -half
    # matches n * moment of the empirical density
    from jackwalk.measures import empirical_density
    for lam, n, th in [((3, 1), 3, half), ((2, 2), 2, two)]:
        for k in (1, 2, 3):
            assert scaled_moment(lam, n, th, k) == \
                n * empirical_density(lam, n, th).moment(k)


@st.composite
def scaled_moment_cases(draw):
    theta = draw(st.sampled_from([half, one, two, Fraction(3, 7)]))
    n = draw(st.integers(0, 6))
    parts = draw(st.lists(st.integers(1, 9), max_size=n))
    return theta, n, tuple(sorted(parts, reverse=True)), draw(st.integers(0, 4))


@settings(max_examples=100, deadline=None)
@given(scaled_moment_cases())
def test_scaled_moment_sums_the_particle_locations(case):
    theta, n, lam, k = case
    value = scaled_moment(lam, n, theta, k)
    ys = particle_locations(lam, n, theta)
    assert ys == [Fraction(p) / (theta * n) - Fraction(i, n)
                  for i, p in enumerate(lam + (0,) * (n - len(lam)))]
    assert value == sum(y ** k for y in ys)
    assert type(value) is Fraction
    tall = lam + (1,) * (n + 1 - len(lam))
    with pytest.raises(ShapeError):
        scaled_moment(tall, n, theta, k)


def test_path_stats():
    s = PathStats([(1, 1), (1, 2)])
    s.add_sample([1.0, 2.0])
    s.add_sample([3.0, 2.0])
    assert s.count == 2
    assert s.mean((1, 1)) == 2.0
    assert s.variance((1, 1)) == 2.0
    assert s.variance((1, 2)) == 0.0
    # a row holds one value per key, in key order
    for row in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError):
            s.add_sample(row)
    assert s.count == 2
    # one sample: no spread to estimate, so every second moment is 0
    one_sample = PathStats([(1, 1), (1, 2)])
    one_sample.add_sample([1.0, 2.0])
    assert one_sample.variance((1, 1)) == 0.0
    buf = io.StringIO()
    s.write_csv(buf)
    text = buf.getvalue()
    assert text.startswith("time,k,mean,var,stderr")
    assert len(text.strip().splitlines()) == 3


def test_path_statistics_two_routes_agree():
    # N = 1 Bernoulli chain: the scaled first moment after one step is a
    # fair coin; both sampling routes see mean 1/2 and variance 1/4 (a
    # per-path callback forces the rows)
    cfg = WalkConfig(1, one, Specialization.single_beta(one), seed=7)
    rows = path_statistics(cfg, 1, 4000, [1], on_path=lambda path: None)
    marg = path_statistics(cfg, 1, 4000, [1])
    assert (rows.method, marg.method) == ("rows", "mass-marginal")
    for stats in (rows, marg):
        m = stats.mean((1, 1))
        se = stats.mean_stderr((1, 1))
        assert abs(m - 0.5) < 4 * se
        assert abs(stats.variance((1, 1)) - 0.25) < 0.03
    assert rows.count == marg.count == 4000


def test_path_statistics_on_path():
    b1 = Specialization.single_beta(one)
    cfg = WalkConfig(3, one, b1, seed=4)
    seen = []
    stats = path_statistics(cfg, 3, 5, [1], on_path=seen.append)
    # a callback needs whole paths, so the marginal shortcut is skipped
    assert stats.method == "rows"
    assert seen == [sample_path(WalkConfig(3, one, b1, seed=path_seed(4, i)), 3)
                    for i in range(5)]
    # the callback does not change the statistics of a rows walk
    both = path_statistics(cfg, 3, 5, [1, 2], on_path=lambda path: None)
    plain = path_statistics(cfg, 3, 5, [1, 2])
    assert plain.method == "rows"
    assert both.sums == plain.sums and both.count == plain.count


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(1, 6),
       st.integers(0, 2 ** 64 - 1))
def test_on_path_follows_seed_derivation(n, steps, samples, seed):
    # path i depends only on (seed, i), not on how many paths are drawn
    b1 = Specialization.single_beta(one)
    seen = []
    path_statistics(WalkConfig(n, one, b1, seed=seed), steps, samples, [1],
                    on_path=seen.append)
    assert seen == [sample_path(WalkConfig(n, one, b1,
                                           seed=path_seed(seed, i)), steps)
                    for i in range(samples)]


_ANY_OR_NEAR = st.integers(0, 3) | st.integers(0, 2 ** 64 - 1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_ANY_OR_NEAR, _ANY_OR_NEAR), min_size=1,
                max_size=30, unique=True))
def test_path_seed_is_a_deterministic_64_bit_map(pairs):
    seeds = [path_seed(seed, index) for seed, index in pairs]
    assert seeds == [path_seed(seed, index) for seed, index in pairs]
    assert all(0 <= s < 2 ** 64 for s in seeds)
    assert len(set(seeds)) == len(pairs)


def test_path_statistics_decodes_the_step_once_for_all_paths(monkeypatch):
    # the route and the path generator each decode the step once, however
    # many paths are drawn, and a table walk holds one row cache
    decodes, caches = [], []
    kernel_args = dynamics._kernel_args

    def counted_decode(cfg):
        decodes.append(cfg)
        return kernel_args(cfg)

    class CountedCache(dynamics._RowCache):
        def __init__(self, cfg):
            caches.append(cfg)
            super().__init__(cfg)

    monkeypatch.setattr(dynamics, "_kernel_args", counted_decode)
    monkeypatch.setattr(dynamics, "_RowCache", CountedCache)
    single = WalkConfig(3, one, Specialization.single_beta(one), seed=2)
    for samples in (1, 6):
        decodes.clear()
        path_statistics(single, 3, samples, [1, 2])
        assert len(decodes) == 2
    assert not caches
    doubled = WalkConfig(2, one, SpecializationUnion([b23, b23]), seed=2)
    assert path_statistics(doubled, 2, 6, [1, 2]).count == 6
    assert caches == [doubled]


def test_path_statistics_validation():
    cfg = WalkConfig(2, one, Specialization.single_beta(one), seed=1)
    with pytest.raises(ValueError):
        path_statistics(cfg, 2, 10, [1], times=[3])
    with pytest.raises(ValueError):
        path_statistics(cfg, 2, 10, [1], times=[])
    with pytest.raises(ValueError):
        path_statistics(cfg, -1, 10, [1, 2])
    with pytest.raises(ValueError):
        path_statistics(cfg, 2, 0, [1])
    with pytest.raises(ValueError):
        path_statistics(cfg, 2, 10, [])
    with pytest.raises(ValueError):
        path_statistics(cfg, 2, 10, [1, -1])
    symbolic = WalkConfig(2, THETA, b23, seed=1)
    with pytest.raises(ValueError):
        path_statistics(symbolic, 2, 10, [1])
    with pytest.raises(ValueError):
        sample_path(symbolic, 2)


# -- exact draws ---------------------------------------------------------------


def _old_draw_index(rng, cums):
    """The Fraction-based draw that the integer `_draw_index` replaced,
    verbatim.  Its tie refinement restarts from the reduced numerator of
    the variate, which drops the draw's trailing zero bits."""
    bits = 64
    u = Fraction(rng.getrandbits(bits), 2 ** bits)
    while any(c == u for c in cums):
        extra = rng.getrandbits(64)
        u = Fraction(u.numerator * 2 ** 64 + extra, 2 ** (bits + 64))
        bits += 64
    for i, c in enumerate(cums):
        if u < c:
            return i
    return None


def _fraction_draw_index(rng, cums):
    """`_old_draw_index` with the tie refinement appending to the draw
    itself: the exact semantics `_draw_index` implements in integers."""
    bits = 64
    r = rng.getrandbits(bits)
    while any(c == Fraction(r, 2 ** bits) for c in cums):
        r = r * 2 ** 64 + rng.getrandbits(64)
        bits += 64
    u = Fraction(r, 2 ** bits)
    for i, c in enumerate(cums):
        if u < c:
            return i
    return None


class StubRandom:
    """Hands out the given words (then ``rest``) and counts the bits
    taken."""

    def __init__(self, words, rest=1):
        self.words = list(words)
        self.rest = rest
        self.bits = 0

    def getrandbits(self, k):
        assert k == 64
        self.bits += k
        return self.words.pop(0) if self.words else self.rest


def _integer_cums(cums):
    denom = math.lcm(*(c.denominator for c in cums))
    return [int(c * denom) for c in cums], denom


WORD = st.integers(0, 2 ** 64 - 1)


@st.composite
def rows_and_words(draw):
    """Cumulative Fraction sums of a random row (some with a tail deficit),
    and RNG words whose first one often lands exactly on a cell boundary."""
    parts = draw(st.lists(
        st.builds(Fraction, st.integers(1, 40),
                  st.sampled_from([1, 2, 3, 4, 7, 8, 64, 1024, 2 ** 40])),
        min_size=1, max_size=10))
    deficit = draw(st.sampled_from(
        [Fraction(0), Fraction(1, 2 ** 20), Fraction(1, 3), Fraction(1, 2)]))
    scale = (1 - deficit) / sum(parts)
    cums, acc = [], Fraction(0)
    for w in parts:
        acc += w * scale
        cums.append(acc)
    boundaries = [int(c * 2 ** 64) for c in cums
                  if (c * 2 ** 64).denominator == 1 and c < 1]
    on_boundary = boundaries and draw(st.booleans())
    first = draw(st.sampled_from(boundaries) if on_boundary else WORD)
    extras = draw(st.lists(st.one_of(st.just(0), WORD), max_size=3))
    return cums, [first] + extras


@settings(max_examples=400, deadline=None)
@given(rows_and_words())
def test_draw_matches_fraction_oracle(case):
    cums, words = case
    int_cums, denom = _integer_cums(cums)
    new, oracle, old = StubRandom(words), StubRandom(words), StubRandom(words)
    got = dynamics._draw_index(new, int_cums, denom)
    assert got == _fraction_draw_index(oracle, cums)
    assert new.bits == oracle.bits
    # the old refinement differs only after a tie at an even first word
    first_ties = any(c == Fraction(words[0], 2 ** 64) for c in cums)
    if not first_ties or words[0] % 2:
        assert got == _old_draw_index(old, cums)
        assert new.bits == old.bits


def test_draw_tie_refinement():
    # the first word lands on 1/2, the boundary of a fair coin; 64 more
    # bits place the variate just above it, in the second cell
    cums, denom = [1, 2], 2
    rng = StubRandom([2 ** 63, 5])
    assert dynamics._draw_index(rng, cums, denom) == 1
    assert rng.bits == 128
    # a zero extension ties again and takes another 64 bits
    rng = StubRandom([2 ** 63, 0, 7])
    assert dynamics._draw_index(rng, cums, denom) == 1
    assert rng.bits == 192
    # the old refinement put the variate near 2^-64, in the first cell
    assert _old_draw_index(StubRandom([2 ** 63, 5]),
                           [Fraction(1, 2), Fraction(1)]) == 0
    # u = 0 is the lower end of the first cell, which is no tie
    rng = StubRandom([0])
    assert dynamics._draw_index(rng, cums, denom) == 0
    assert rng.bits == 64
    # past the last cell of a deficient row: the truncated tail
    rng = StubRandom([2 ** 64 - 1])
    assert dynamics._draw_index(rng, [1, 2], 3) is None
    assert rng.bits == 64


BETAS = [Fraction(0), one, Fraction(2, 3), Fraction(5, 2)]


def _kernel_args(n, b, theta):
    return dynamics._kernel_args(WalkConfig(n, theta,
                                            Specialization.single_beta(b)))


def _row_draw(rng, lam, args):
    """The oracle for bernoulli_draw: _draw_index on the cumulative sums of
    the step kernel's whole row."""
    entries, den = bernoulli_row(lam, *args)
    cums = list(itertools.accumulate(num for _, num in entries))
    return entries[dynamics._draw_index(rng, cums, den)][0]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(THETAS), st.sampled_from(BETAS), st.integers(0, 9),
       st.lists(st.integers(1, 6), max_size=9), st.integers(1, 4), WORD)
def test_kernel_draw_matches_row_oracle(theta, b, n, parts, steps, seed):
    # a short walk, each step drawn both ways from one random stream
    lam = tuple(sorted(parts, reverse=True))[:n]
    args = _kernel_args(n, b, theta)
    new, oracle = random.Random(seed), random.Random(seed)
    for _ in range(steps):
        mu = bernoulli_draw(new, lam, *args)
        assert mu == _row_draw(oracle, lam, args)
        assert new.getstate() == oracle.getstate()
        lam = mu


def test_kernel_draw_ties_match_row_oracle():
    # every first word that lands exactly on a cell boundary c of a row,
    # r / 2^64 = c / den, then words that tie again or do not; c = 0, the
    # lower end of the first cell, is no tie
    cases = 0
    for theta, b, n in itertools.product(THETAS, BETAS, range(7)):
        args = _kernel_args(n, b, theta)
        for size in range(n + 1):
            for lam in itertools.combinations_with_replacement((3, 2, 1),
                                                               size):
                entries, den = bernoulli_row(lam, *args)
                cums = list(itertools.accumulate(num for _, num in entries))
                for c in [0] + cums[:-1]:
                    if (c << 64) % den:
                        continue
                    for extra in ([], [0], [5], [0, 2 ** 63]):
                        words = [(c << 64) // den] + extra
                        new, oracle = StubRandom(words), StubRandom(words)
                        assert bernoulli_draw(new, lam, *args) == \
                            entries[dynamics._draw_index(oracle, cums,
                                                         den)][0]
                        assert new.bits == oracle.bits
                        assert (new.bits > 64) == (c > 0)
                        cases += c > 0
    assert cases > 1000


def _bordered_minors(matrix):
    """Row r holds the bordered leading minors det A[0..r, (0..r-1) and c],
    c >= r, of a square integer matrix whose leading principal minors are
    nonzero: the entries of row r after r passes of fraction-free
    (Bareiss) elimination."""
    rows = [list(row) for row in matrix]
    out, prev = [], 1
    for r, top in enumerate(rows):
        out.append(top[r:])
        pivot = top[r]
        for k in range(r + 1, len(rows)):
            row = rows[k]
            rows[k] = [(pivot * a - row[r] * t) // prev
                       for a, t in zip(row, top)]
        prev = pivot
    return out


def _determinant_descend(floor, ys, grow_weight, keep_weight, p):
    """The oracle for _steppure._descend: the strip-tree descent that
    builds the kept branch's matrix M of bernoulli_draw at every row and
    takes its determinant by elimination."""
    n = len(ys)
    keeps, grows = [keep_weight] * n, [grow_weight] * n
    zs, low, scale = [], 0, 1
    for i, y in enumerate(ys):
        z = y
        if grows[i]:
            # M of bernoulli_draw, rows last first, with the shift s = 0
            matrix = [[keeps[k] * (y - ys[k]) * ys[k] ** c
                       + grows[k] * (y - ys[k] - p) * (ys[k] + p) ** c
                       for c in range(n - 1 - i)]
                      for k in reversed(range(i + 1, n))]
            minors = _bordered_minors(matrix)
            kept = scale * keeps[i] * (minors[-1][0] if minors else 1)
            if floor >= low + kept:
                low += kept
                z = y + p
        scale *= keeps[i] if z == y else grows[i]
        for k in range(i + 1, n):
            keeps[k] *= z - ys[k]
            grows[k] *= z - ys[k] - p
        zs.append(z)
    return zs, low


def _descent_args(lam, n, b_num, b_den, p, q):
    """(ys, grow_weight, keep_weight, p) for _descend from lam, as
    bernoulli_draw passes them, and the row's den."""
    padded = list(lam) + [0] * (n - len(lam))
    ys = [q * part - p * i for i, part in enumerate(padded)]
    den = (p * b_num + q * b_den) ** n
    for i, y in enumerate(ys):
        for j in range(i):
            den *= ys[j] - y
    return (ys, p * b_num, q * b_den, p), den


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(THETAS), st.sampled_from(BETAS), st.integers(0, 20),
       st.lists(st.integers(1, 12), max_size=20), WORD)
def test_descend_matches_determinant_oracle(theta, b, n, parts, word):
    # past the sizes whose whole rows the row oracle can list; the floors
    # are a random one, the lower end of its cell and the integer below
    lam = tuple(sorted(parts, reverse=True))[:n]
    args, den = _descent_args(lam, *_kernel_args(n, b, theta))
    floor = (word * den) >> 64
    zs, low = _determinant_descend(floor, *args)
    assert _steppure._descend(floor, *args) == (zs, low)
    assert _steppure._descend(low, *args) == (zs, low)
    if low:
        assert _steppure._descend(low - 1, *args) == \
            _determinant_descend(low - 1, *args)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(THETAS), st.sampled_from(BETAS), st.integers(0, 12),
       st.lists(st.integers(1, 12), max_size=12), st.integers(-20, 20))
def test_start_minors_match_elimination(theta, b, n, parts, shift):
    # the closed form of the root's bordered minors is exactly what
    # fraction-free elimination of R_0 gives, for any shift
    lam = tuple(sorted(parts, reverse=True))[:n]
    (ys, grow_weight, keep_weight, p), _ = _descent_args(
        lam, *_kernel_args(n, b, theta))
    xs = [y - shift for y in reversed(ys)]
    matrix = [[keep_weight * x ** c + grow_weight * (x + p) ** c
               for c in range(n)] for x in xs]
    assert _steppure._start_minors(xs, grow_weight, keep_weight, p) == \
        _bordered_minors(matrix)


# -- push-block at theta = 1 -----------------------------------------------------

KEEP, GROW = 0, 2 ** 64 - 1  # the least and the greatest word
PUSH_BLOCK_BETAS = [Fraction(1, 3), Fraction(2, 3), one, Fraction(5, 2)]


def _packed(n):
    return [[0] * k for k in range(1, n + 1)]


def _top(levels):
    return tuple(x for x in levels[-1] if x) if levels else ()


def _push_block_outcomes(pattern, b_num, b_den):
    """[(pattern after one step, keeps, grows)] over every keep/grow word
    sequence of the real step from ``pattern`` (levels as tuples): word 0
    keeps a free part and word 2^64 - 1 grows it.  Each run keeps every
    free part past the given words; a run is then made for each of them
    grown instead, so every sequence is run once."""
    out = []
    pending = [[]]
    while pending:
        words = pending.pop()
        levels = [list(level) for level in pattern]
        rng = StubRandom(words, rest=KEEP)
        _steppure.push_block_step(rng, levels, b_num, b_den)
        used = words + [KEEP] * (rng.bits // 64 - len(words))
        pending += [used[:j] + [GROW] for j in range(len(words), len(used))]
        grows = used.count(GROW)
        out.append((tuple(map(tuple, levels)), len(used) - grows, grows))
    return out


def _push_block_path_law(n, steps, b):
    """{top-level path: probability} of push-block from the packed pattern,
    over all times jointly.  A step's word sequence with a keeps and g
    grows weighs b_den^a b_num^g / den^(a + g), den = b_num + b_den.  The
    masses are integers over den^parts a step, parts = n(n+1)/2 >= a + g,
    so each weight is scaled by den^(parts - a - g)."""
    b_num, b_den = b.numerator, b.denominator
    den, parts = b_num + b_den, n * (n + 1) // 2
    outcomes = {}
    law = {(tuple(map(tuple, _packed(n))), ((),)): 1}
    for _ in range(steps):
        after = {}
        for (pattern, path), mass in law.items():
            if pattern not in outcomes:
                outcomes[pattern] = [
                    (levels, (_top(levels),), b_den ** keeps * b_num ** grows
                     * den ** (parts - keeps - grows))
                    for levels, keeps, grows in _push_block_outcomes(
                        pattern, b_num, b_den)]
            for levels, top, weight in outcomes[pattern]:
                key = (levels, path + top)
                after[key] = after.get(key, 0) + mass * weight
        law = after
    paths = {}
    for (_, path), mass in law.items():
        paths[path] = paths.get(path, 0) + mass
    return {path: Fraction(mass, den ** (parts * steps))
            for path, mass in paths.items()}


@pytest.mark.parametrize("b", PUSH_BLOCK_BETAS, ids=str)
@pytest.mark.parametrize("n, steps", [(n, 3) for n in range(6)] + [(3, 5)],
                         ids=str)
def test_push_block_path_law_is_the_rows_path_law(n, steps, b):
    # the top level's path, all times jointly, has the law of the product
    # of transition rows, with no tolerance
    cfg = WalkConfig(n, one, Specialization.single_beta(b))
    rows = {}
    law = _push_block_path_law(n, steps, b)
    assert sum(law.values()) == 1
    for path, mass in law.items():
        expected = one
        for lam, mu in zip(path, path[1:]):
            if lam not in rows:
                rows[lam] = transition_row(lam, cfg).support
            expected *= rows[lam].get(mu, 0)
        assert mass == expected, path


@pytest.mark.parametrize("b", [one, Fraction(1, 3)], ids=str)
def test_push_block_tie_draws_more_words_as_exact_draw_does(b):
    # the word that puts u * den exactly on the boundary b_den (2^63 at
    # b = 1, 3 * 2^62 at b = 1/3) grows the part and takes one more word,
    # or more while they are 0; one word less keeps it with one word
    den = b.numerator + b.denominator
    boundary = (b.denominator << 64) // den

    def cell(floor):
        return (True, b.denominator) if floor >= b.denominator else (False, 0)

    for words, bits in (([boundary, 5], 128), ([boundary, 0, 7], 192),
                        ([boundary - 1, 5], 64)):
        levels, rng, oracle = [[0]], StubRandom(words), StubRandom(words)
        _steppure.push_block_step(rng, levels, b.numerator, b.denominator)
        grew = _steppure.exact_draw(oracle, den, cell)
        assert levels == [[1 if grew else 0]]
        assert rng.bits == oracle.bits == bits
        assert grew == (words[0] == boundary)


def _interlace(levels):
    return all(above[i] >= below[i] >= above[i + 1]
               for below, above in zip(levels, levels[1:])
               for i in range(len(below)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9), st.integers(0, 8),
       st.sampled_from([Fraction(0)] + PUSH_BLOCK_BETAS), WORD)
def test_push_block_keeps_the_pattern_a_pattern(n, steps, b, seed):
    # after every step the levels interlace, every part grows by at most
    # 1, and the top level is the diagram of the sampled path
    path = sample_path(WalkConfig(n, one, Specialization.single_beta(b),
                                  seed=seed), steps)
    levels, rng = _packed(n), random.Random(seed)
    for t in range(1, steps + 1):
        before = [list(level) for level in levels]
        _steppure.push_block_step(rng, levels, b.numerator, b.denominator)
        assert _interlace(levels)
        assert all(x - y in (0, 1) for level, old in zip(levels, before)
                   for x, y in zip(level, old))
        assert _top(levels) == path[t]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([half, one, two]), st.sampled_from(BETAS),
       st.integers(1, 6), st.lists(st.integers(1, 4), max_size=6),
       st.integers(0, 5), WORD)
def test_other_single_beta_walks_descend_the_strip_tree(theta, b, n, parts,
                                                        steps, seed):
    # theta = 1 from a start that is not packed, and theta = 1/2 or 2 from
    # any start, are the chain of bernoulli_draws from one random stream
    initial = tuple(sorted(parts, reverse=True))[:n]
    if theta == 1 and not initial:
        initial = (1,)
    args = _kernel_args(n, b, theta)
    rng = random.Random(seed)
    expected = [initial]
    for _ in range(steps):
        expected.append(bernoulli_draw(rng, expected[-1], *args))
    cfg = WalkConfig(n, theta, Specialization.single_beta(b), initial=initial,
                     seed=seed)
    assert sample_path(cfg, steps) == expected


def test_push_block_moments_within_4_se():
    # N = 12: k = 2 and k = 3 means and variances of 4000 push-block paths
    # against the exact law of exact_evolve
    cfg = WalkConfig(12, one, Specialization.single_beta(one), seed=29)
    m, steps = 4000, 3
    stats = path_statistics(cfg, steps, m, [2, 3])
    assert stats.method == "rows"
    for k in (2, 3):
        for t, (mean, var, mu4) in _exact_laws(cfg, steps, k).items():
            se_mean = math.sqrt(var / m)
            se_var = math.sqrt(max(0, mu4 / m - var * var * (m - 3)
                                   / (m * (m - 1))))
            assert abs(stats.mean((t, k)) - mean) <= 4 * se_mean + 1e-9, \
                (t, k)
            assert abs(stats.variance((t, k)) - var) <= 4 * se_var + 1e-9, \
                (t, k)


def _assert_cache_matches_row(lam, cfg):
    """The cached row of lam is transition_row's measure: its support in
    increasing order, with the running sums of its weights over denom."""
    row = transition_row(lam, cfg)
    mus, cums, denom = dynamics._RowCache(cfg).cumulative(lam)
    assert mus == sorted(row.support)
    acc = Fraction(0)
    for mu, c in zip(mus, cums):
        acc += row.support[mu]
        assert Fraction(c, denom) == acc
    assert cums[-1] == denom  # pure-beta rows carry no deficit


@settings(max_examples=100, deadline=None)
@given(beta_rows(THETAS))
def test_row_cache_integer_cumulative_sums(case):
    # the cache scales a row's reduced weights by the lcm of their
    # denominators; kernel rows give it many shapes and thetas
    theta, n, lam, b = case
    _assert_cache_matches_row(lam, WalkConfig(n, theta,
                                              Specialization.single_beta(b)))


def test_table_route_row_cache_integer_cumulative_sums(monkeypatch):
    with _table_route(monkeypatch) as calls:
        _assert_cache_matches_row((1,), WalkConfig(2, two, b23))
    assert calls
    doubled = SpecializationUnion([b23, b23])  # two atoms: the table route
    _assert_cache_matches_row((1,), WalkConfig(2, two, doubled))


@pytest.mark.parametrize("theta", [one, half], ids=str)
def test_kernel_and_table_caches_draw_alike(monkeypatch, theta):
    # the kernel draws by descending its strips over an unreduced
    # denominator, the table route bisects a cached row over reduced ones:
    # a draw is scale-invariant, so both give the same bits.  The start is
    # not packed, so that theta = 1 descends the strip tree too, not the
    # push-block pattern
    cfg = WalkConfig(3, theta, Specialization.single_beta(one),
                     initial=(1,), seed=6)
    kernel = path_statistics(cfg, 2, 30, [1, 2])
    with _table_route(monkeypatch) as calls:
        table = path_statistics(cfg, 2, 30, [1, 2])
    assert calls
    assert _bits(kernel) == _bits(table)


# -- batched statistics --------------------------------------------------------


def _bits(stats):
    return (stats.count,
            {key: [x.hex() for x in s] for key, s in stats.sums.items()})


def _spy_on_add_batch(monkeypatch):
    """Copies of the value blocks PathStats.add_batch is given, in order."""
    blocks = []
    add_batch = PathStats.add_batch

    def spy(self, values):
        blocks.append(values.copy())
        return add_batch(self, values)

    monkeypatch.setattr(PathStats, "add_batch", spy)
    return blocks


# zeros of both signs, subnormals, and magnitudes whose square (1e300) or
# only fourth power (1e80) overflows, beside any other finite float
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-300,
                     1e80, -1e80, 1e300, -1e300, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))


def _laid_out(values, layout):
    """`values` as a C-ordered block, a Fortran-ordered one, or a strided
    slice of a larger array whose other entries are nan."""
    if layout == "C":
        return numpy.ascontiguousarray(values)
    if layout == "F":
        return numpy.asfortranarray(values)
    m, width = values.shape
    wide = numpy.full((2 * m + 1, 3 * width), numpy.nan)
    wide[1::2, 2::3] = values
    return wide[1::2, 2::3]


@pytest.mark.parametrize("blocks", [[7], [5, 5, 5], [6, 6, 2], [0], [1],
                                    [0, 3, 1, 0]])
@settings(max_examples=25, deadline=None)
@given(width=st.integers(1, 300),
       layout=st.sampled_from(["C", "F", "strided"]),
       pool=st.lists(_EDGE_FLOATS, min_size=1, max_size=12),
       edge_sizes=st.lists(st.integers(0, 4), min_size=1, max_size=5))
@example(width=257, layout="strided", pool=[1e80, -0.0, 5e-324],
         edge_sizes=[0, 4])
def test_add_batch_matches_add_sample(blocks, width, layout, pool,
                                      edge_sizes):
    keys = [(t, 1 + t % 3) for t in range(width)]
    rng = random.Random(sum(blocks) * 31 + len(blocks) + width)
    draws = [
        # mixed signs and magnitudes around a large mean, where the order
        # and rounding of every addition show in the last bits
        lambda: (rng.choice([-1, 1]) * rng.uniform(0, 10)
                 * 10 ** rng.randint(-3, 4) + 1e4),
        # lattice values (base + step a) / den, as the mass-marginal route
        # gives: few distinct values, each repeated across the block
        lambda: (-1234.5 + 3 * rng.randint(0, 6)) / 7,
        # signed zeros beside values whose powers underflow to them
        lambda: rng.choice([0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5]),
        # edge floats, a few blocks of which may be empty
        lambda: rng.choice(pool),
    ]
    families = [[numpy.array([[draw() for _ in keys] for _ in range(m)])
                 .reshape(m, width) for m in sizes]
                for draw, sizes in zip(draws, [blocks] * 3 + [edge_sizes])]
    for family in families:
        batched, single = PathStats(keys), PathStats(keys)
        for values in family:
            # an overflowing power is inf, and inf - inf nan, in both
            with numpy.errstate(over="ignore", invalid="ignore"):
                batched.add_batch(_laid_out(values, layout))
            for row in values.tolist():
                single.add_sample(row)
        assert _bits(batched) == _bits(single)


def test_add_batch_refuses_a_block_of_the_wrong_shape():
    # one column per key: extra columns are not ignored, and one column is
    # not copied into every key
    keys = [(0, 1), (4, 1), (4, 2)]
    stats = PathStats(keys)
    for shape in [(2, 4), (2, 1), (3,), (1, 2, 3)]:
        with pytest.raises(ValueError):
            stats.add_batch(numpy.ones(shape))
    assert _bits(stats) == _bits(PathStats(keys))


def test_add_batch_makes_the_same_calls_whatever_the_width():
    # every key is summed in one pass: add_batch makes the same calls for a
    # block of 9 keys as for one of 257 (with the collector off, so that no
    # garbage collection callback adds its own)
    def calls(width):
        stats = PathStats([(t, 1) for t in range(width)])
        values = numpy.arange(5.0 * width).reshape(5, width)
        names = []

        def profile(frame, event, arg):
            if event == "c_call":
                names.append(arg.__name__)

        gc.disable()
        sys.setprofile(profile)
        try:
            stats.add_batch(values)
        finally:
            sys.setprofile(None)
            gc.enable()
        return names

    assert "accumulate" in calls(9)
    assert calls(9) == calls(257)


_MARGINAL_PEAK_BOUND = 1.5 * 2 ** 20  # bytes


@pytest.mark.parametrize("width", [9, 257])
def test_mass_marginal_working_set_is_fixed(width):
    # the marginal streams its samples through blocks of at most
    # _BLOCK_BUDGET values: the traced peak stays under a fixed bound and
    # does not grow with the number of samples
    cfg = WalkConfig(256, one, Specialization.single_beta(one), seed=7)
    times = range(0, 257, 256 // (width - 1))
    path_statistics(cfg, 256, 10, [1], times=times)  # lazy imports
    peaks = {}
    for samples in (2000, 8000):
        tracemalloc.start()
        try:
            stats = path_statistics(cfg, 256, samples, [1], times=times)
            peaks[samples] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.method == "mass-marginal" and len(stats.keys) == width
    assert max(peaks.values()) < _MARGINAL_PEAK_BOUND, peaks
    assert peaks[8000] <= peaks[2000] + 2 ** 16, peaks


def _per_sample_marginal_stats(cfg, samples, times):
    """The per-sample Fraction loop of the mass-marginal route, before it
    was batched: one scalar Binomial(n * dt, q) draw per interval between
    requested times, the first interval starting at t = 0."""
    b = cfg.rho.betas[0]
    q = float(b / (1 + b))
    offset = Fraction(sum(cfg.initial), cfg.n) - Fraction(cfg.n - 1, 2)
    stats = PathStats([(t, 1) for t in times], method="mass-marginal")
    rng = numpy.random.Generator(numpy.random.PCG64(cfg.seed))
    for _ in range(samples):
        added, prev, values = 0, 0, []
        for t in times:
            added += int(rng.binomial(cfg.n * (t - prev), q))
            prev = t
            values.append(float(offset + Fraction(added, cfg.n)))
        stats.add_sample(values)
    return stats


def test_mass_marginal_matches_per_sample_loop():
    cfg = WalkConfig(5, one, Specialization.single_beta(Fraction(2, 3)),
                     initial=(3, 1), seed=11)
    times = [0, 1, 3, 6]
    batched = path_statistics(cfg, 6, 20003, [1], times=times)
    assert batched.method == "mass-marginal"
    assert _bits(batched) == _bits(
        _per_sample_marginal_stats(cfg, 20003, times))


@pytest.mark.parametrize("rows", [1, 7])
def test_mass_marginal_blocks_fit_the_budget(monkeypatch, rows):
    # the budget only sizes the blocks: a few rows per block draw the same
    # random stream and sum the same values in the same order
    cfg = WalkConfig(6, one, Specialization.single_beta(one), seed=3)
    steps, samples = 24, 40
    times = list(range(steps + 1))  # 25 keys
    default = path_statistics(cfg, steps, samples, [1])
    budget = rows * len(times)
    monkeypatch.setattr(dynamics, "_BLOCK_BUDGET", budget)
    blocks = _spy_on_add_batch(monkeypatch)
    small = path_statistics(cfg, steps, samples, [1])
    assert small.method == "mass-marginal"
    assert _bits(small) == _bits(default)
    assert [len(b) for b in blocks] == [rows] * (samples // rows) \
        + [samples % rows] * (samples % rows > 0)
    assert all(b.size <= budget for b in blocks)
