"""Markov growth dynamics on Young diagrams.

One step of the walk moves a diagram lam to a superdiagram mu with
probability

    p(lam -> mu) = (1/H) * (j_lam/j_mu) * (PV(mu)/PV(lam)) * skew(mu/lam at rho),

where H is the reproducing-kernel pairing of the step data rho with the
finite-alphabet point 1^N, j is the squared norm, and PV the principal
value.  Rows are computed exactly.  Pure-beta steps reach only finitely
far (each beta atom contributes at most one vertical strip), so their
rows carry no truncation deficit.  Steps with alpha atoms or gamma reach
without bound; the mass they add has the law b_d / H, b_d = [t^d]
H(t rho; 1^N), whatever the current diagram, and `_step_cap` cuts their
rows at the first size whose tail under that law is at most
DEFAULT_DEFICIT_BOUND.  The lost tail is recorded as the row's deficit.

A single unit-scale beta step at a numeric theta takes its row from the
integer step kernel in `_steppure`, with no Jack table.  For mu = lam + e_S
(S the rows that grow) and d_ij = lam_i - lam_j + theta (j - i), the Jack
limit of Macdonald's psi' for e_r gives

    p(lam -> mu) = (theta b)^|S| (1 + theta b)^(-N) * prod_{i<j} F_ij,

with F_ij = 1 when both rows or neither grow, (d_ij + theta)/d_ij when
only i grows and (d_ij - theta)/d_ij when only j grows.  The kernel lists
each vertical strip once, as a canonical partition within N rows, with a
positive numerator over one common denominator.  Every other step (a
symbolic theta, alpha atoms, gamma, several atoms or a larger scale)
takes its row from a Jack table and the step's Cauchy kernel
H(rho; x) = exp(theta sum_j p_j(x) p_j(rho) / j) (Macdonald VI.10): for
H_d its degree-d part, J_{mu/lam}(rho) = <J_mu, J_lam H_d> / j_lam,
d = |mu| - |lam|, so one product g = J_lam H_d per added size and one
pairing <J_mu, g> per candidate mu give the row, with no skew function
built.  H(rho; 1^N), the cap and H_0..H_cap depend on the step alone:
`_table_step` builds them once, one record that every row of the step
reads.  `_kernel_args` decides the route.

Sampling draws a uniform dyadic rational u = r / 2^64 and picks the cell
of a row's cumulative numerators that holds u times their common
denominator, comparing in integers and appending 64 more bits whenever
u lands exactly on a boundary between two cells, so path laws inherit
the rows' exactness.  One function, `_steppure.exact_draw`, makes every
draw; each route only says how to find the cell that holds a given
integer.  Scaling a row's numerators and denominator alike moves no
comparison, so the draws do not depend on which common denominator a
row carries.  A table row is drawn from the row cache, which keeps it as
its support in increasing order and integer cumulative numerators over
the lcm of its weights' denominators, and finds the cell by bisection.
A single-beta step builds no row: the kernel's `bernoulli_draw` descends
the tree of its strips, one row of the diagram at a time, weighing each
branch by an integer determinant whose bordered leading minors it
carries from row to row, and picks the strip that the same bits pick
from the kernel's row.  That costs O(N^3) integer products where the
row has up to 2^N strips.  At theta = 1 from the empty diagram the walk
is instead the top level of a Gelfand-Tsetlin pattern, packed at the
start and moved by the kernel's `push_block_step`: Bernoulli push-block
dynamics, O(N^2) small-integer work and one coin per free part a step.
Its paths have the law of the rows, not their bytes; every other
single-beta walk descends the strip tree.  One generator,
`_sample_paths`, draws every path: it decodes the step once, holds the
walk's one row cache, and draws path i of `path_statistics` from
path_seed(seed, i).

In a single-beta row the strips of size d together weigh
C(N, d) q^d (1-q)^(N-d), q = theta*b/(1+theta*b), at every theta (Pieri,
since e_d(1^N) = C(N, d)): the mass added per step is Binomial(N, q)
regardless of the current diagram.  `step_mass_law` exposes that
marginal.  When k = 1 alone is requested of a single-beta walk,
`path_statistics` samples the first moment through it, which reaches
walks that per-row enumeration never could.  Since the sum of dt
independent Binomial(N, q) steps is Binomial(N dt, q), that route draws
one Binomial per interval between consecutive requested times (the first
from t = 0) and cumulates the intervals, in numpy blocks of samples that
hold at most _BLOCK_BUDGET = 2^14 values each (one per sample and time)
and are accumulated in one pass for every time.  A zero-width interval
draws nothing, so when every time is requested the random stream, and
every byte, is that of one draw per step.  Each statistic is one
correctly rounded division of integers below 2^53, and the blocks are
accumulated in sample order, so its output matches a per-sample exact
loop bit for bit, whatever the block size.  PathStats takes a sample
as a row of floats in key order, one per path or a block of them.
"""

import hashlib
import math
import random
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate

from . import _steppure as _stepimpl
from .errors import DeficitError, ResourceLimitError, ShapeError
# nothing here calls skew_jack or specialize: perfbench/child.py traces them
from .jack import basis_for, principal_value, reproducing_kernel, skew_jack
from .measures import MeasureOnYoung, particle_locations, particle_numerators
from .partitions import contains, enumerate_partitions, length, \
    make_partition, weight
from .psum import CONVERSION_SIZE_CUTOFF, PSumPoly, scalar_product
from .scalars import (RationalFunction, _numerators, as_exact, as_fraction,
                      is_zero, refuse_unknown_keys)
from .series import TruncSeries
from .specializations import Specialization, SpecializationUnion, specialize

DEFAULT_DEFICIT_BOUND = Fraction(1, 2 ** 32)

_MAX_EVOLVE_STATES = 20000
_MAX_CACHED_ENTRIES = 2000000
_BLOCK_BUDGET = 2 ** 14  # values per mass-marginal block; bounds its memory
_TABLE_STEPS = {}  # (n, theta, rho) -> (H, cap, cauchy), see _table_step


class WalkConfig(namedtuple("WalkConfig", "n theta rho initial seed")):
    """Immutable description of a walk: alphabet size, deformation, step
    data, start diagram and seed.

    The step data must be a positive specialization: an alpha or beta
    atom may only be repeated a whole number of times, so a component
    with atoms needs an integer scale (a fractional copy of an atom gives
    rows with negative weights).  A numeric theta must be positive.  How
    far a row reaches is not a setting: see _step_cap.  Every construction
    validates; the config is a tuple: iterable, and equal to the plain
    tuple of its fields."""

    __slots__ = ()

    def __new__(cls, n, theta, rho, initial=(), seed=0):
        initial = make_partition(initial)
        if n < 0:
            raise ShapeError("alphabet size must be nonnegative")
        if length(initial) > n:
            raise ShapeError("initial diagram has more than %d rows" % n)
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        exact = as_exact(theta)
        if isinstance(exact, Fraction) and exact <= 0:
            raise ValueError("theta must be positive, got %s" % exact)
        for comp in rho.components:
            if (comp.alphas or comp.betas) and comp.scale.denominator != 1:
                raise ValueError(
                    "a step with alpha or beta atoms needs an integer "
                    "scale, got %s" % comp.scale)
        return super().__new__(cls, n, theta, rho, initial, seed)

    def to_json(self):
        from .scalars import scalar_to_json

        return {"N": self.n,
                "theta": scalar_to_json(self.theta),
                "rho": self.rho.to_json(),
                "initial": list(self.initial),
                "seed": self.seed}

    @staticmethod
    def from_json(obj):
        """Inverse of to_json.  A config that is not an object, lacks N,
        theta or rho, has a key other than N, theta, rho, initial and
        seed, holds a union or an initial diagram that is not a list, or
        an N, seed or part of the initial diagram that is not a JSON
        integer raises ValueError."""
        from .scalars import scalar_from_json

        if not isinstance(obj, dict):
            raise ValueError("a walk config is a JSON object, got %r"
                             % (obj,))
        refuse_unknown_keys(obj, ("N", "theta", "rho", "initial", "seed"),
                            "walk config")
        missing = [key for key in ("N", "theta", "rho") if key not in obj]
        if missing:
            raise ValueError("walk config lacks %s"
                             % ", ".join(map(repr, missing)))
        rho_obj = obj["rho"]
        if isinstance(rho_obj, dict) and "union" in rho_obj:
            refuse_unknown_keys(rho_obj, ("union",), "union")
            if not isinstance(rho_obj["union"], list):
                raise ValueError("union must be a list, got %r"
                                 % (rho_obj["union"],))
            rho = SpecializationUnion(
                [Specialization.from_json(c) for c in rho_obj["union"]])
        else:
            rho = Specialization.from_json(rho_obj)
        initial = obj.get("initial", [])
        if not isinstance(initial, list):
            raise ValueError("initial must be a list, got %r" % (initial,))
        return WalkConfig(n=_json_int(obj["N"], "N"),
                          theta=scalar_from_json(obj["theta"]),
                          rho=rho,
                          initial=tuple(_json_int(p, "a part of initial")
                                        for p in initial),
                          seed=_json_int(obj.get("seed", 0), "seed"))


def _json_int(value, name):
    """A JSON integer as it stands: a float, a bool or any other value
    raises ValueError rather than being rounded or converted."""
    if type(value) is not int:
        raise ValueError("%s must be an integer, got %r" % (name, value))
    return value


def _table_step(cfg):
    """(H, cap, cauchy) for the step, built once per (n, theta, rho) and
    kept in _TABLE_STEPS: H = H(rho; 1^N), the product of
    reproducing_kernel(component, 1^N) over the step's components; the
    cap (_step_cap); and H_0..H_cap, the degree parts of the Cauchy kernel
    H(rho; x) over power sums.  None of them depends on the diagram."""
    key = cfg[:3]
    found = _TABLE_STEPS.get(key)
    if found is None:
        theta, ones = cfg.theta, Specialization.ones(cfg.n)
        kernel = Fraction(1)
        for comp in cfg.rho.components:
            kernel = kernel * reproducing_kernel(comp, ones, theta)
        cap = _step_cap(cfg, kernel)
        # _step_cap's recurrence, at x rather than 1^N
        cauchy = TruncSeries("t", 1, [
            PSumPoly.p(j) * (theta * cfg.rho.p_value(j, theta) / j)
            for j in range(1, cap + 1)], cap + 1).exp()
        found = _TABLE_STEPS[key] = (kernel, cap, tuple(
            cauchy.coefficient(d) for d in range(cap + 1)))
    return found


def _step_cap(cfg, kernel):
    """The most mass one row may add, given H = kernel = H(rho; 1^N): the
    exact reach of a pure-beta step (n boxes per beta atom and per copy,
    WalkConfig's integer scale), whose rows are then whole, and otherwise
    the smallest d whose tail 1 - (b_0 + ... + b_d) / H is at most
    DEFAULT_DEFICIT_BOUND.

    By the Cauchy identity the strips of size d together weigh b_d / H
    whatever the current diagram, where
    b_d = [t^d] H(t rho; 1^N) = [t^d] exp(sum_j theta N p_j(rho) t^j / j),
    read off TruncSeries.exp up to the Jack table cutoff.  Dividing by
    the same H as transition_row makes the tail equal the row's deficit.
    A tail still above the bound at the cutoff raises ResourceLimitError,
    as no row that long can be built."""
    reach = 0
    for comp in cfg.rho.components:
        if comp.gamma != 0 or comp.alphas:
            break
        reach += cfg.n * len(comp.betas) * int(comp.scale)
    else:
        return reach
    theta = as_fraction(cfg.theta)
    size = CONVERSION_SIZE_CUTOFF + 1
    law = TruncSeries("t", 1, [theta * cfg.n * cfg.rho.p_value(j, theta) / j
                               for j in range(1, size)], size).exp()
    slack = DEFAULT_DEFICIT_BOUND * kernel
    rest = kernel  # H(rho; 1^N) - (b_0 + ... + b_d)
    for d in range(size):
        rest -= law.coefficient(d)
        if rest <= slack:
            return d
    raise ResourceLimitError(
        "one step leaves a tail above %s past %d boxes, the Jack table "
        "cutoff" % (DEFAULT_DEFICIT_BOUND, CONVERSION_SIZE_CUTOFF))


def _kernel_args(cfg):
    """(n, b_num, b_den, p, q), the step kernel's arguments after the
    diagram, when the kernel builds the rows: a single unit-scale beta
    atom b = b_num/b_den at a numeric theta = p/q.  None for any other
    step, whose rows come from a Jack table."""
    comps = cfg.rho.components
    if (isinstance(as_exact(cfg.theta), RationalFunction)
            or len(comps) != 1 or comps[0].gamma != 0 or comps[0].alphas
            or len(comps[0].betas) != 1 or comps[0].scale != 1):
        return None
    theta = Fraction(cfg.theta)
    b = Fraction(comps[0].betas[0])
    return (cfg.n, b.numerator, b.denominator,
            theta.numerator, theta.denominator)


def transition_row(lam, cfg):
    """One exact row of the walk's transition matrix, as a measure on
    diagrams with at most cfg.n rows.  Truncated tail mass (possible only
    for steps of unbounded reach) is recorded as the measure's deficit."""
    lam = make_partition(lam)
    if length(lam) > cfg.n:
        raise ShapeError("diagram has more than %d rows" % cfg.n)
    args = _kernel_args(cfg)
    if args is not None:
        entries, den = _stepimpl.bernoulli_row(lam, *args)
        return MeasureOnYoung(
            cfg.n, {mu: Fraction(num, den) for mu, num in entries})

    theta = cfg.theta
    kernel, cap, cauchy = _table_step(cfg)
    basis = basis_for(theta)
    size = weight(lam)
    basis.ensure_size(size + cap)
    j_lam = basis.polynomial(lam)
    pv_lam = principal_value(lam, cfg.n, theta)
    weights = {}
    total = Fraction(0)
    for d, h_d in enumerate(cauchy):
        g = j_lam * h_d
        for mu in enumerate_partitions(size + d, cfg.n):
            if not contains(mu, lam):
                continue
            pairing = scalar_product(basis.polynomial(mu), g, theta)
            if is_zero(pairing):
                continue
            w = (principal_value(mu, cfg.n, theta) / pv_lam) * pairing \
                / (basis.norm(mu) * kernel)
            weights[mu] = w
            total = total + w
    return MeasureOnYoung(cfg.n, weights, tail_deficit=1 - total)


def step_mass_law(n, b, theta=1):
    """Exact law of the mass added by one single-beta step at a numeric
    theta.

    The strips of size d together weigh C(n, d) q^d (1-q)^(n-d),
    q = theta b/(1 + theta b), whatever the current diagram: the added
    mass is Binomial(n, q).  Returns [(d, probability)] for d = 0..n.

    Proof.  Write theta = p/r, w = theta b and y_i = r lam_i - p i for
    the n rows, distinct nodes.  The step grows the rows of a set S with
    probability w^|S| Delta(y + p e_S) / ((1 + w)^n Delta(y)), Delta the
    Vandermonde product (`_steppure.bernoulli_row`); a set that is not a
    strip has y_i + p = y_(i-1) for some i, so Delta(y + p e_S) = 0.
    Replacing the rows in S of the Vandermonde matrix V(y) by those of
    V(y + p) gives Delta(y + p e_S) / Delta(y) = det T_SS for
    T = V(y + p) V(y)^(-1), T_ij = l_j(y_i + p) with l_j the Lagrange
    basis at the nodes y.  Summing over S, E z^|S| =
    det(I + z w T) / det(I + w T).  T is the shift by p on polynomials of
    degree below n, exp(p d/dx) with d/dx nilpotent, so T is unipotent
    and det(I + z w T) = (1 + z w)^n: E z^|S| = ((1 + z w)/(1 + w))^n,
    the generating function of Binomial(n, w/(1 + w)).
    """
    tb = Fraction(theta) * Fraction(b)
    q = tb / (1 + tb)
    return [(d, math.comb(n, d) * q ** d * (1 - q) ** (n - d))
            for d in range(n + 1)]


# -- sampling ----------------------------------------------------------------


def path_seed(seed, index):
    """Deterministic 64-bit per-path seed derived from (seed, path index)."""
    digest = hashlib.sha256(
        b"jackwalk-path" + seed.to_bytes(8, "big") + index.to_bytes(8, "big"))
    return int.from_bytes(digest.digest()[:8], "big")


class _RowCache:
    """Table-route transition rows keyed by diagram, as (mus, cums, denom):
    the support in increasing order, and integer cumulative weights over
    a common denominator (mus[i] holds the cell [cums[i-1], cums[i]) /
    denom).

    Each row comes from transition_row, its weights as integer numerators
    over the lcm of their denominators; the rows of one step share one
    record of H(rho; 1^N), the cap and H_0..H_cap (_table_step).  Rows
    keep a tail of at most DEFAULT_DEFICIT_BOUND (see _step_cap); a row
    past it would raise DeficitError, and so does a draw into the tail
    (_sample_paths).  ResourceLimitError is raised once more than
    _MAX_CACHED_ENTRIES cells are held.  Single-beta steps draw from the
    step kernel, not rows."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.rows = {}
        self.entries = 0

    def cumulative(self, lam):
        entry = self.rows.get(lam)
        if entry is None:
            row = transition_row(lam, self.cfg)
            if row.tail_deficit > DEFAULT_DEFICIT_BOUND:
                raise DeficitError(
                    "row deficit %s exceeds bound %s at %r"
                    % (row.tail_deficit, DEFAULT_DEFICIT_BOUND, lam))
            mus = sorted(row.support)
            nums, denom = _numerators([row.support[mu] for mu in mus])
            cums = list(accumulate(nums))
            self.entries += len(mus)
            if self.entries > _MAX_CACHED_ENTRIES:
                raise ResourceLimitError(
                    "row cache would hold more than %d entries"
                    % _MAX_CACHED_ENTRIES)
            entry = self.rows[lam] = (mus, cums, denom)
        return entry


def _draw_index(rng, cums, denom):
    """Pick the cell of a uniform variate u = r / 2^bits: the first i with
    u * denom < cums[i], found by bisection on floor(u * denom).  While
    u * denom equals some cums[i] exactly (a tie), 64 more random bits are
    appended to r, so the cell is the one an exact uniform variate picks.
    Returns None when u falls past the last cell, into a truncated tail.
    The draw is `_steppure.exact_draw`."""
    def cell(floor):
        i = bisect_right(cums, floor)
        return i, cums[i - 1] if i else 0

    i = _stepimpl.exact_draw(rng, denom, cell)
    return i if i < len(cums) else None


def _sample_paths(cfg, steps, seeds):
    """Trajectories [lam^(0), ..., lam^(steps)], one per seed, drawn with
    random.Random(seed): by push-block on a Gelfand-Tsetlin pattern for a
    single-beta step at theta = 1 from the empty diagram, by
    bernoulli_draw for any other single-beta step, and from one _RowCache
    otherwise.  Raises DeficitError if a row's truncated tail exceeds
    DEFAULT_DEFICIT_BOUND (or a draw lands in it), ValueError for a
    symbolic theta, and ResourceLimitError, before it allocates, for a
    single-beta walk whose N(N+1)/2 pattern parts exceed
    _MAX_CACHED_ENTRIES."""
    if isinstance(as_exact(cfg.theta), RationalFunction):
        raise ValueError("sampling needs a numeric theta, not a symbolic one")
    args = _kernel_args(cfg)
    if args is not None and cfg.n * (cfg.n + 1) // 2 > _MAX_CACHED_ENTRIES:
        # the pattern's parts, or the strip tree's minors, would not fit
        raise ResourceLimitError(
            "a single-beta walk at N = %d would hold more than %d entries"
            % (cfg.n, _MAX_CACHED_ENTRIES))
    if args is not None and args[3:] == (1, 1) and not cfg.initial:
        # theta = p/q = 1 from the empty diagram: the top level of a
        # Gelfand-Tsetlin pattern, packed (every part 0) at the start
        for seed in seeds:
            rng = random.Random(seed)
            levels = [[0] * k for k in range(1, cfg.n + 1)]
            top = levels[-1] if levels else []
            path = [()]
            for _ in range(steps):
                _stepimpl.push_block_step(rng, levels, *args[1:3])
                path.append(tuple(x for x in top if x))
            yield path
        return
    cache = None if args is not None else _RowCache(cfg)
    for seed in seeds:
        rng = random.Random(seed)
        path = [cfg.initial]
        for _ in range(steps):
            if cache is None:
                path.append(_stepimpl.bernoulli_draw(rng, path[-1], *args))
                continue
            mus, cums, denom = cache.cumulative(path[-1])
            idx = _draw_index(rng, cums, denom)
            if idx is None:
                raise DeficitError(
                    "draw landed in the truncated tail of a row")
            path.append(mus[idx])
        yield path


def sample_path(cfg, steps):
    """One path [lam^(0), ..., lam^(steps)], drawn from cfg.seed."""
    return next(_sample_paths(cfg, steps, [cfg.seed]))


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
        for lam, mass in current.support.items():
            row = transition_row(lam, cfg)
            deficit = deficit + mass * row.tail_deficit
            for mu, w in row.support.items():
                weights[mu] = weights.get(mu, 0) + mass * w
            if len(weights) > _MAX_EVOLVE_STATES:
                raise ResourceLimitError("evolved support too large")
        # a signed start measure may cancel a weight, which the
        # constructor drops
        current = MeasureOnYoung(cfg.n, weights, deficit)
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
    Per key it keeps four raw power sums: sum x and sum x^2 feed the CSV,
    sum x^3 and sum x^4 feed variance_stderr.  Nothing is kept per pair
    of keys, so a sample costs O(keys) and merging is plain addition.
    """

    def __init__(self, keys, method="rows"):
        self.keys = [tuple(key) for key in keys]
        self.method = method
        self.count = 0
        self.sums = {key: [0.0, 0.0, 0.0, 0.0] for key in self.keys}

    def add_sample(self, values):
        """Record one path's row of floats, in self.keys order."""
        if len(values) != len(self.keys):
            raise ValueError("need a row of %d values" % len(self.keys))
        self.count += 1
        for key, x in zip(self.keys, values):
            x2 = x * x
            s = self.sums[key]
            s[0] += x
            s[1] += x2
            s[2] += x2 * x
            s[3] += x2 * x2

    def add_batch(self, values):
        """Record a block of paths: a float64 numpy array of shape (paths,
        len(keys)), one column per key in self.keys order.  Each power
        add_sample takes fills a plane below a row of running totals, and
        one add.accumulate down the path axis adds them in path order, so
        a few numpy calls give every key add_sample's sums, bit for bit."""
        import numpy

        if values.shape[1:] != (len(self.keys),):
            raise ValueError("need a (paths, %d) block" % len(self.keys))
        acc = numpy.empty((4, len(values) + 1, len(self.keys)))
        acc[:, 0] = numpy.array([self.sums[key] for key in self.keys]).T
        x, x2 = acc[0, 1:], acc[1, 1:]
        x[...] = values
        numpy.multiply(x, x, out=x2)
        numpy.multiply(x2, x, out=acc[2, 1:])
        numpy.multiply(x2, x2, out=acc[3, 1:])
        # add.accumulate adds in order; add.reduce and sum add pairwise
        numpy.add.accumulate(acc, axis=1, out=acc)
        for key, totals in zip(self.keys, acc[:, -1].T.tolist()):
            self.sums[key] = totals
        self.count += len(values)

    def merge(self, other):
        if self.keys != other.keys:
            raise ValueError("cannot merge statistics with different keys")
        self.count += other.count
        for key in self.keys:
            mine, theirs = self.sums[key], other.sums[key]
            for i in range(4):
                mine[i] += theirs[i]
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
    """The functional n * integral x^k d(empirical law) = sum of y_i^k,
    exactly, summed in integers over the locations' common denominator."""
    nums, den = particle_numerators(lam, n, theta)
    if not nums:  # N = 0: no particles, and den = 0
        return Fraction(0)
    return Fraction(sum(a ** k for a in nums), den ** k)


def _marginal_statistic(args, initial):
    """(base, step, den): at theta = p/r (args, as _kernel_args) the k = 1
    statistic of a state with |initial| + d boxes is (base + step d) / den,
    exactly, where base = 2r|initial| - p n(n-1), step = 2r, den = 2pn."""
    n, _, _, p, r = args
    return 2 * r * weight(initial) - p * n * (n - 1), 2 * r, 2 * p * n


def _mass_marginal_stats(cfg, args, steps, samples, times):
    """Sample k = 1 statistics of a single-beta walk through the exact
    Binomial step-mass marginal (state-independent), instead of per-row
    enumeration.  Law-equal to the rows; see step_mass_law.  `args` is
    the step as _kernel_args decodes it; cfg gives the start and seed.

    Each sample draws one Binomial(n * dt, q) per interval between
    consecutive requested times, the first interval starting at t = 0,
    and cumulates them: the mass added by dt independent steps.  A
    zero-width interval (t = 0) consumes no random state, so when every
    time is requested the draws, and the bytes, are those of one
    Binomial(n, q) per step.

    Numerator and denominator of each statistic (see _marginal_statistic)
    are integers below 2^53, so one float64 division gives the correctly
    rounded value of the exact quotient."""
    import numpy

    n, b_num, b_den, p, r = args
    q = float(Fraction(p * b_num, r * b_den + p * b_num))  # step_mass_law's
    base, step, den = _marginal_statistic(args, cfg.initial)
    if max(abs(base) + step * n * steps, step, den) >= 2 ** 53:
        raise ResourceLimitError("walk too large for exact float statistics")
    stats = PathStats([(t, 1) for t in times], method="mass-marginal")
    rng = numpy.random.Generator(numpy.random.PCG64(cfg.seed))
    trials = n * numpy.diff(times, prepend=0)  # per interval
    block = max(1, _BLOCK_BUDGET // len(times))
    for done in range(0, samples, block):
        added = rng.binomial(trials, q,
                             size=(min(block, samples - done), len(times)))
        numpy.cumsum(added, axis=1, out=added)
        added *= step
        added += base
        stats.add_batch(numpy.true_divide(added, den))
    return stats


def path_statistics(cfg, steps, samples, ks, times=None, on_path=None):
    """Monte Carlo means and variances of the scaled moments
    n * integral x^k at the requested times (default: every time), over
    `samples` independent paths seeded from (cfg.seed, path index).

    The request picks the route, recorded as the result's ``method``:
    "mass-marginal" draws the Binomial step masses (see step_mass_law)
    when only k = 1 is asked of a single-beta walk with n > 0 and no
    ``on_path``; "rows" walks exact transition rows otherwise.
    ``on_path``, if given, is called with each full path
    [lam^(0), ..., lam^(steps)] in sample order.  Negative steps, an
    empty list of times, no k, fewer than one sample, a negative or
    repeated k and a symbolic theta raise ValueError.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if times is None:
        times = list(range(steps + 1))
    times = sorted(set(int(t) for t in times))
    if not times:
        raise ValueError("need at least one requested time")
    if times[0] < 0 or times[-1] > steps:
        raise ValueError("requested times fall outside the walk")
    ks = [int(k) for k in ks]
    if not ks:
        raise ValueError("need at least one moment index k")
    if samples < 1:
        raise ValueError("need at least one sample")
    if any(k < 0 for k in ks):
        raise ValueError("moment indices k must be nonnegative")
    if len(set(ks)) < len(ks):
        raise ValueError("moment indices k must not repeat")

    args = _kernel_args(cfg)
    if args is not None and ks == [1] and cfg.n > 0 and on_path is None:
        return _mass_marginal_stats(cfg, args, steps, samples, times)

    stats = PathStats((t, k) for t in times for k in ks)
    seeds = (path_seed(cfg.seed, index) for index in range(samples))
    for path in _sample_paths(cfg, steps, seeds):
        if on_path is not None:
            on_path(path)
        row = []
        for t in times:
            # scaled_moment for every k at once: each quotient is the
            # correctly rounded float of the same rational
            nums, den = particle_numerators(path[t], cfg.n, cfg.theta)
            row.extend(sum(a ** k for a in nums) / den ** k if nums else 0.0
                       for k in ks)
        stats.add_sample(row)
    return stats
