"""Markov growth dynamics on Young diagrams.

One step of the walk moves a diagram lam to a superdiagram mu with
probability

    p(lam -> mu) = (1/H) * (j_lam/j_mu) * (PV(mu)/PV(lam)) * skew(mu/lam at rho),

where H is the reproducing-kernel pairing of the step data rho with the
finite-alphabet point 1^N, j is the squared norm, and PV the principal
value.  Rows are computed exactly.  Pure-beta steps reach only finitely
far (each beta atom contributes at most one vertical strip), so their
rows carry no truncation deficit; other steps are truncated at a
configurable mass and the lost tail is recorded.

Sampling draws a uniform dyadic rational at 64-bit resolution and walks
the exact cumulative row, refining the resolution whenever a comparison
ties, so path laws inherit the rows' exactness.  At theta = 1 a
single-beta row is a conditioned ensemble of N Bernoulli moves whose
total displacement is Binomial(N, theta*b/(1+theta*b)) regardless of the
current diagram; `step_mass_law` exposes that marginal and
`path_statistics` uses it to sample first-moment functionals of large
walks that per-row enumeration could never reach.
"""

import hashlib
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DeficitError, ResourceLimitError, ShapeError
from .jack import basis_for, principal_value, reproducing_kernel, skew_jack
from .measures import MeasureOnYoung, particle_locations
from .partitions import length, make_partition, weight
from .scalars import as_exact, as_fraction, is_zero
from .specializations import Specialization, SpecializationUnion, specialize

if os.environ.get("JACKWALK_FORCE_PY"):  # force the pure twin (benchmarks)
    from . import _steppure as _stepimpl
else:
    try:  # compiled kernel if built, pure twin otherwise
        from . import _stepkernel as _stepimpl
    except ImportError:  # pragma: no cover - depends on build environment
        from . import _steppure as _stepimpl

DEFAULT_DEFICIT_BOUND = Fraction(1, 2 ** 32)

_MAX_ROW_STATES = 200000
_MAX_EVOLVE_STATES = 20000


@dataclass(frozen=True)
class WalkConfig:
    """Immutable description of a walk: alphabet size, deformation, step
    data, start diagram, seed, and the per-step mass cutoff (None = pick
    a default: exact reach for pure-beta steps, four times the expected
    step mass otherwise)."""

    n: int
    theta: object
    rho: object
    initial: tuple = ()
    seed: int = 0
    step_truncation: int = None

    def __post_init__(self):
        object.__setattr__(self, "initial", make_partition(self.initial))
        if self.n < 0:
            raise ShapeError("alphabet size must be nonnegative")
        if length(self.initial) > self.n:
            raise ShapeError("initial diagram has more than %d rows" % self.n)
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")

    def to_json(self):
        from .scalars import scalar_to_json

        data = {"N": self.n,
                "theta": scalar_to_json(self.theta),
                "rho": self.rho.to_json(),
                "initial": list(self.initial),
                "seed": self.seed}
        if self.step_truncation is not None:
            data["step_truncation"] = self.step_truncation
        return data

    @staticmethod
    def from_json(obj):
        from .scalars import scalar_from_json

        rho_obj = obj["rho"]
        if "union" in rho_obj:
            rho = SpecializationUnion(
                [Specialization.from_json(c) for c in rho_obj["union"]])
        else:
            rho = Specialization.from_json(rho_obj)
        return WalkConfig(n=int(obj["N"]),
                          theta=scalar_from_json(obj["theta"]),
                          rho=rho,
                          initial=tuple(int(p) for p in obj.get("initial", [])),
                          seed=int(obj.get("seed", 0)),
                          step_truncation=obj.get("step_truncation"))


def _components(rho):
    if isinstance(rho, SpecializationUnion):
        return rho.components
    return (rho,)


def _finite_reach(rho, n):
    """Max step mass for pure-beta data (None when unbounded).

    Each beta atom contributes a vertical strip of at most n boxes; an
    integer scale repeats the atom list that many times.
    """
    total = 0
    for comp in _components(rho):
        if comp.gamma != 0 or comp.alphas:
            return None
        if not comp.betas or comp.scale == 0:
            continue
        if comp.scale.denominator != 1:
            return None
        total += n * len(comp.betas) * int(comp.scale)
    return total


def _step_cap(cfg):
    reach = _finite_reach(cfg.rho, cfg.n)
    if cfg.step_truncation is not None:
        if reach is not None:
            return min(cfg.step_truncation, reach)
        return cfg.step_truncation
    if reach is not None:
        return reach
    theta = as_fraction(cfg.theta)
    expected = theta * cfg.n * cfg.rho.p_value(1, theta)
    return max(1, math.ceil(4 * expected))


def _superpartitions(lam, n, cap):
    """All mu containing lam with length <= n and |mu| <= |lam| + cap."""
    lam = make_partition(lam)
    padded = list(lam) + [0] * (n - len(lam))
    out = []
    row = [0] * n

    def rec(i, budget):
        if i == n:
            mu = tuple(row)
            while mu and mu[-1] == 0:
                mu = mu[:-1]
            out.append(mu)
            return
        upper = padded[i] + budget if i == 0 else min(padded[i] + budget, row[i - 1])
        for v in range(padded[i], upper + 1):
            row[i] = v
            rec(i + 1, budget - (v - padded[i]))
            if len(out) > _MAX_ROW_STATES:
                raise ResourceLimitError("transition row support too large")
        row[i] = 0

    rec(0, cap)
    return out


def _is_unit_beta_step(cfg):
    """True when the theta = 1 single-atom fast row applies."""
    if as_exact(cfg.theta) != 1:
        return False
    comps = _components(cfg.rho)
    if len(comps) != 1:
        return False
    comp = comps[0]
    return (comp.gamma == 0 and not comp.alphas and len(comp.betas) == 1
            and comp.scale == 1)


def _bernoulli_row(lam, n, b):
    """Exact theta = 1 single-beta row via the compiled/pure step kernel."""
    b = Fraction(b)
    raw = _stepimpl.bernoulli_row(tuple(lam), n, b.numerator, b.denominator)
    norm_num = b.denominator ** n
    norm_den = (b.numerator + b.denominator) ** n
    weights = {}
    for mu, num, den in raw:
        w = Fraction(num * norm_num, den * norm_den)
        if w:
            weights[mu] = w
    return MeasureOnYoung(n, weights)


def transition_row(lam, cfg):
    """One exact row of the walk's transition matrix, as a measure on
    diagrams with at most cfg.n rows.  Truncated tail mass (possible only
    for steps of unbounded reach) is recorded as the measure's deficit."""
    lam = make_partition(lam)
    if length(lam) > cfg.n:
        raise ShapeError("diagram has more than %d rows" % cfg.n)
    if _is_unit_beta_step(cfg):
        return _bernoulli_row(lam, cfg.n, _components(cfg.rho)[0].betas[0])

    theta = cfg.theta
    ones = Specialization.ones(cfg.n)
    kernel = Fraction(1)
    for comp in _components(cfg.rho):
        kernel = kernel * reproducing_kernel(comp, ones, theta)
    cap = _step_cap(cfg)
    basis = basis_for(theta)
    basis.ensure_size(weight(lam) + cap)

    pv_lam = principal_value(lam, cfg.n, theta)
    norm_lam = basis.norm(lam)
    weights = {}
    total = Fraction(0)
    for mu in _superpartitions(lam, cfg.n, cap):
        skew = skew_jack(mu, lam, theta)
        value = specialize(skew, cfg.rho, theta)
        if is_zero(value):
            continue
        w = (norm_lam / basis.norm(mu)) \
            * (principal_value(mu, cfg.n, theta) / pv_lam) * value / kernel
        if is_zero(w):
            continue
        weights[mu] = w
        total = total + w
    return MeasureOnYoung(cfg.n, weights, tail_deficit=1 - total)


def step_mass_law(n, b):
    """Exact law of the mass added by one theta = 1 single-beta step.

    The row's Vandermonde ratio is harmonic for independent Bernoulli
    moves, so the added mass is Binomial(n, q) with q = b/(1+b) no matter
    the current diagram.  Returns [(d, probability)] for d = 0..n.
    """
    b = Fraction(b)
    q = b / (1 + b)
    return [(d, math.comb(n, d) * q ** d * (1 - q) ** (n - d))
            for d in range(n + 1)]


# -- sampling ----------------------------------------------------------------


def path_seed(seed, index):
    """Deterministic 64-bit per-path seed derived from (seed, path index)."""
    digest = hashlib.sha256(
        b"jackwalk-path" + seed.to_bytes(8, "big") + index.to_bytes(8, "big"))
    return int.from_bytes(digest.digest()[:8], "big")


class _RowCache:
    """Transition rows keyed by diagram, with cumulative sums for sampling."""

    def __init__(self, cfg, deficit_bound):
        self.cfg = cfg
        self.deficit_bound = deficit_bound
        self.rows = {}

    def cumulative(self, lam):
        entry = self.rows.get(lam)
        if entry is None:
            row = transition_row(lam, self.cfg)
            if row.tail_deficit > self.deficit_bound:
                raise DeficitError(
                    "row deficit %s exceeds bound %s at %r"
                    % (row.tail_deficit, self.deficit_bound, lam))
            mus = sorted(row.support)
            cums = []
            acc = Fraction(0)
            for mu in mus:
                acc = acc + as_fraction(row.weight(mu))
                cums.append(acc)
            entry = self.rows[lam] = (mus, cums)
        return entry


def _draw_index(rng, cums):
    """Pick the cumulative cell containing a uniform variate, comparing a
    64-bit dyadic draw exactly and appending bits on the rare tie."""
    bits = 64
    u = Fraction(rng.getrandbits(bits), 2 ** bits)
    while any(c == u for c in cums):
        extra = rng.getrandbits(64)
        u = Fraction(u.numerator * 2 ** 64 + extra, 2 ** (bits + 64))
        bits += 64
    for i, c in enumerate(cums):
        if u < c:
            return i
    return None  # fell into the truncated tail


def sample_path(cfg, steps, deficit_bound=DEFAULT_DEFICIT_BOUND, _cache=None,
                _rng=None):
    """One trajectory [lam^(0), ..., lam^(steps)], reproducible from
    cfg.seed.  Raises DeficitError if a row's truncated tail exceeds
    `deficit_bound` (or if a draw lands inside the tail)."""
    cache = _cache if _cache is not None else _RowCache(cfg, deficit_bound)
    rng = _rng if _rng is not None else random.Random(cfg.seed)
    state = cfg.initial
    path = [state]
    for _ in range(steps):
        mus, cums = cache.cumulative(state)
        idx = _draw_index(rng, cums)
        if idx is None:
            raise DeficitError("draw landed in the truncated tail of a row")
        state = mus[idx]
        path.append(state)
    return path


def exact_evolve(measure, cfg, steps):
    """Pushforward of a measure through `steps` exact transition rows.

    Returns [M_0, M_1, ..., M_steps].  Deficits accumulate: mass lost to
    row truncation joins the measure's own tail deficit.
    """
    out = [measure]
    current = measure
    for _ in range(steps):
        weights = {}
        deficit = current.tail_deficit
        for lam in current.support:
            mass = current.weight(lam)
            row = transition_row(lam, cfg)
            deficit = deficit + mass * row.tail_deficit
            for mu in row.support:
                weights[mu] = weights.get(mu, 0) + mass * row.weight(mu)
            if len(weights) > _MAX_EVOLVE_STATES:
                raise ResourceLimitError("evolved support too large")
        current = MeasureOnYoung(cfg.n, weights, tail_deficit=deficit)
        out.append(current)
    return out


def height_function(path_state, n, theta, x):
    """Number of particle positions of the state that sit at or above x."""
    x = Fraction(x)
    return sum(1 for y in particle_locations(path_state, n, theta) if y >= x)


# -- path statistics ---------------------------------------------------------


class PathStats:
    """Mergeable Monte Carlo accumulators for walk functionals.

    Keys are (time, k) pairs; each sample contributes the scaled moment
    n * integral of x^k against the state's empirical law at that time.
    Stores raw power sums (up to fourth order per key, plus pairwise
    products), so merging accumulators is plain addition.
    """

    def __init__(self, keys, method="rows"):
        self.keys = [tuple(key) for key in keys]
        self.method = method
        self.count = 0
        self.sums = {key: [0.0, 0.0, 0.0, 0.0] for key in self.keys}
        self.cross = {}
        for i, a in enumerate(self.keys):
            for b in self.keys[i + 1:]:
                self.cross[(a, b)] = 0.0

    def add_sample(self, values):
        """Record one path's statistics; `values` maps key -> float."""
        self.count += 1
        for key in self.keys:
            x = values[key]
            s = self.sums[key]
            s[0] += x
            s[1] += x * x
            s[2] += x ** 3
            s[3] += x ** 4
        for a, b in self.cross:
            self.cross[(a, b)] += values[a] * values[b]

    def merge(self, other):
        if self.keys != other.keys:
            raise ValueError("cannot merge statistics with different keys")
        self.count += other.count
        for key in self.keys:
            mine, theirs = self.sums[key], other.sums[key]
            for i in range(4):
                mine[i] += theirs[i]
        for pair in self.cross:
            self.cross[pair] += other.cross[pair]
        return self

    # -- estimates -----------------------------------------------------------

    def mean(self, key):
        return self.sums[tuple(key)][0] / self.count

    def variance(self, key):
        key = tuple(key)
        m = self.count
        if m < 2:
            return 0.0
        s = self.sums[key]
        return max(0.0, (s[1] - s[0] * s[0] / m) / (m - 1))

    def covariance(self, key_a, key_b):
        key_a, key_b = tuple(key_a), tuple(key_b)
        if key_a == key_b:
            return self.variance(key_a)
        if (key_a, key_b) not in self.cross:
            key_a, key_b = key_b, key_a
        m = self.count
        sa, sb = self.sums[key_a], self.sums[key_b]
        return (self.cross[(key_a, key_b)] - sa[0] * sb[0] / m) / (m - 1)

    def mean_stderr(self, key):
        return math.sqrt(self.variance(key) / self.count)

    def variance_stderr(self, key):
        """Standard error of the variance estimate, from the sample's own
        fourth central moment (normal-theory value when kurtosis is 3)."""
        key = tuple(key)
        m = self.count
        if m < 2:
            return 0.0
        s = self.sums[key]
        mean = s[0] / m
        m2 = s[1] / m - mean ** 2
        m4 = (s[3] - 4 * mean * s[2] + 6 * mean ** 2 * s[1]) / m \
            - 3 * mean ** 4
        var_of_var = (m4 - (m - 3) / (m - 1) * m2 * m2) / m
        return math.sqrt(max(0.0, var_of_var))

    def write_csv(self, stream):
        stream.write("time,k,mean,var,stderr\r\n")
        for t, k in self.keys:
            stream.write("%d,%d,%.12g,%.12g,%.12g\r\n"
                         % (t, k, self.mean((t, k)), self.variance((t, k)),
                            self.mean_stderr((t, k))))


def scaled_moment(lam, n, theta, k):
    """The functional n * integral x^k d(empirical law) = sum of y_i^k."""
    return sum(y ** k for y in particle_locations(lam, n, theta))


def _mass_marginal_stats(cfg, steps, samples, times):
    """Sample k = 1 statistics of the theta = 1 single-beta walk through
    the exact Binomial step-mass marginal (state-independent), instead of
    per-row enumeration.  Law-equal to the rows; see step_mass_law."""
    import numpy

    b = _components(cfg.rho)[0].betas[0]
    q = float(b / (1 + b))
    offset = Fraction(weight(cfg.initial), cfg.n) - Fraction(cfg.n - 1, 2)
    stats = PathStats([(t, 1) for t in times], method="mass-marginal")
    rng = numpy.random.Generator(numpy.random.PCG64(cfg.seed))
    block = 20000
    done = 0
    while done < samples:
        m = min(block, samples - done)
        masses = rng.binomial(cfg.n, q, size=(m, steps))
        totals = numpy.cumsum(masses, axis=1)
        for row in range(m):
            values = {}
            for t in times:
                added = 0 if t == 0 else int(totals[row, t - 1])
                values[(t, 1)] = float(offset + Fraction(added, cfg.n))
            stats.add_sample(values)
        done += m
    return stats


def path_statistics(cfg, steps, samples, ks, times=None,
                    deficit_bound=DEFAULT_DEFICIT_BOUND, method=None):
    """Monte Carlo means/variances/covariances of the scaled moments
    n * integral x^k at the requested times (default: every time), over
    `samples` independent paths seeded from (cfg.seed, path index).

    ``method`` forces the sampling route: "rows" walks exact transition
    rows; "mass-marginal" draws the Binomial step masses (first moments
    of theta = 1 single-beta walks only).  None picks automatically.
    """
    if times is None:
        times = list(range(steps + 1))
    times = sorted(set(int(t) for t in times))
    if times and (times[0] < 0 or times[-1] > steps):
        raise ValueError("requested times fall outside the walk")
    ks = [int(k) for k in ks]

    marginal_ok = ks == [1] and _is_unit_beta_step(cfg) and cfg.n > 0
    if method not in (None, "rows", "mass-marginal"):
        raise ValueError("unknown sampling method %r" % (method,))
    if method == "mass-marginal" and not marginal_ok:
        raise ValueError("mass-marginal sampling needs theta = 1, a single "
                         "unit-scale beta step, and ks == [1]")
    if marginal_ok and method != "rows":
        return _mass_marginal_stats(cfg, steps, samples, times)

    keys = [(t, k) for t in times for k in ks]
    stats = PathStats(keys)
    cache = _RowCache(cfg, deficit_bound)
    wanted = set(times)
    for index in range(samples):
        rng = random.Random(path_seed(cfg.seed, index))
        state = cfg.initial
        values = {}
        if 0 in wanted:
            for k in ks:
                values[(0, k)] = float(scaled_moment(state, cfg.n, cfg.theta, k))
        for t in range(1, steps + 1):
            mus, cums = cache.cumulative(state)
            idx = _draw_index(rng, cums)
            if idx is None:
                raise DeficitError("draw landed in the truncated tail of a row")
            state = mus[idx]
            if t in wanted:
                for k in ks:
                    values[(t, k)] = float(
                        scaled_moment(state, cfg.n, cfg.theta, k))
        stats.add_sample(values)
    return stats
