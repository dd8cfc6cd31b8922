"""Workloads of the jackwalk benchmark and the checks on their outputs.

A workload is a list of CLI invocations run one after another, each in a
fresh interpreter.  Every invocation is checked:

* exact outputs (the verify CSVs and every ``.predictions.csv``) must
  match, byte for byte below their provenance line, a digest recorded in
  ``reference.json`` by ``record_reference.py``;
* each Monte Carlo estimate in a ``walk sample`` CSV must lie within four
  standard errors of its exact value.  The exact values, and the standard
  errors, come from the exact law of the statistic: ``step_mass_law`` for
  k = 1 at theta = 1, ``exact_evolve`` otherwise, as far as
  ``Walk.evolve_steps`` reaches.

The invocations (sizes chosen so that a run can take the median of several
repetitions):

* ``marginal``: N = 256 and t = N, the paper's regime.  The auto route is
  the Binomial mass marginal; rows and tables are bypassed and the time goes
  to drawing, the per-sample loop and ``PathStats.add_sample``.
* ``rows``: N = 10 with ``k = 1,2``, which forces the exact-row route at
  theta = 1: the step kernel enumerates up to 2^10 strips per row, then the
  row cache, cumulative sums and dyadic draws.
* ``theta-half``: theta = 1/2, so rows come from Jack tables built
  symbolically and substituted; table building dominates.
* the verify suites and ``walk predict``: symbolic tables, operators and
  limit series.  Every output is exact.

They form two workloads rather than four because on a shared two-core
virtual machine the CPU speed drifts by 10-30% over tens of seconds to
minutes: with two workloads, the whole benchmark fits its time budget with
runs of about a minute, in which every invocation also runs once on the
yardstick that ``run.py`` measures the drift with.  ``theta1-walks``
never builds a Jack table and ``tables-and-series`` builds little else, so
an optimization of one side should show as no change on the other.
"""

import hashlib
import math
import re
from dataclasses import dataclass
from fractions import Fraction

#: the seeded suites have reference digests for seeds 0 .. EXACT_SEEDS - 1;
#: the benchmark seed is reduced modulo this count for them (walk seeds are
#: used as given).
EXACT_SEEDS = 256

#: slack for float64 rounding in the estimates, which are computed from raw
#: power sums and printed to 12 significant digits: 2^-30 relative to the
#: second moment of the statistic.
FLOAT_SLACK = Fraction(1, 2 ** 30)

PROVENANCE = re.compile(rb"# artifact \S+ config sha256:[0-9a-f]{12}\r")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments, the files it writes, which of those are
    exact (checked against the reference under ``ref_key``), and the walk
    whose statistics it samples, if any."""

    argv: tuple
    outputs: tuple
    exact: tuple = ()
    ref_seed: object = None
    walk: object = None

    def ref_key(self, output):
        return output if self.ref_seed is None else "%s/%d" % (output,
                                                               self.ref_seed)


def walk_config(n, theta, seed):
    """A single unit beta atom, empty start: the README's walk config."""
    return {"N": n, "theta": theta,
            "rho": {"betas": ["1"], "alphas": [], "gamma": "0", "scale": "1"},
            "initial": [], "seed": seed}


@dataclass(frozen=True)
class Walk:
    """One ``walk sample`` invocation, writing ``<name>.csv``."""

    name: str
    n: int
    theta: str
    steps: int
    ks: tuple
    samples: int
    times: tuple = None
    evolve_steps: int = 0

    def keys(self):
        times = self.times if self.times is not None else range(self.steps + 1)
        return [(t, k) for t in times for k in self.ks]

    def invocation(self):
        out = self.name + ".csv"
        argv = ["walk", "sample", "--config", self.name + ".json",
                "--steps", str(self.steps),
                "--k", ",".join(str(k) for k in self.ks),
                "--samples", str(self.samples), "--out", out]
        if self.times is not None:
            argv[6:6] = ["--times", ",".join(str(t) for t in self.times)]
        return Invocation(tuple(argv), (out, out + ".predictions.csv"),
                          exact=(out + ".predictions.csv",), walk=self)

    def exact_laws(self):
        """{(t, k): (mean, variance, fourth central moment)} of the sampled
        statistic, exactly, for every key that has an exact reference."""
        from jackwalk import (MeasureOnYoung, WalkConfig, exact_evolve,
                              step_mass_law)
        from jackwalk.dynamics import scaled_moment

        cfg = WalkConfig.from_json(walk_config(self.n, self.theta, 0))
        laws = {}
        if cfg.theta == 1 and 1 in self.ks:
            # the mass added per step is i.i.d. with law step_mass_law, and
            # the k = 1 statistic is x0 + |lam| / n at theta = 1
            law = step_mass_law(self.n, Fraction(1))
            kappa = _cumulants([(Fraction(d), p) for d, p in law])
            x0 = scaled_moment(cfg.initial, self.n, cfg.theta, 1)
            for t, k in self.keys():
                if k == 1:
                    laws[(t, k)] = (x0 + t * kappa[0] / self.n,
                                    t * kappa[1] / self.n ** 2,
                                    (t * kappa[3] + 3 * (t * kappa[1]) ** 2)
                                    / self.n ** 4)
        if self.evolve_steps:
            start = MeasureOnYoung(self.n, {cfg.initial: 1})
            measures = exact_evolve(start, cfg, self.evolve_steps)
            for t, k in self.keys():
                if (t, k) in laws or t > self.evolve_steps:
                    continue
                dist = [(Fraction(scaled_moment(lam, self.n, cfg.theta, k)), w)
                        for lam, w in measures[t].support.items()]
                kappa = _cumulants(dist)
                laws[(t, k)] = (kappa[0], kappa[1],
                                kappa[3] + 3 * kappa[1] ** 2)
        return laws


def _cumulants(dist):
    """First four cumulants of a finite law given as [(value, weight)]."""
    mean = sum(p * x for x, p in dist)
    mu2, mu3, mu4 = (sum(p * (x - mean) ** j for x, p in dist)
                     for j in (2, 3, 4))
    return mean, mu2, mu3, mu4 - 3 * mu2 ** 2


def suite_invocations(seed):
    """The verify suites and ``walk predict`` on ``walk256.json``."""
    s = seed % EXACT_SEEDS
    calls = [
        (["verify", "cauchy", "--degree", "6"], "cauchy.csv", None),
        (["verify", "ns", "--max-size", "5", "--max-order", "4",
          "--theta", "symbolic"], "ns.csv", None),
        (["verify", "stochastic", "--max-rows", "3", "--max-size", "4",
          "--theta", "2"], "stochastic.csv", None),
        (["verify", "toeplitz", "--symbols", "20", "--order", "6",
          "--seed", str(s), "--strict"], "toeplitz.csv", s),
        (["verify", "moments", "--count", "20", "--seed", str(s)],
         "moments.csv", s),
        (["walk", "predict", "--config", "walk256.json",
          "--k", "1,2,3,4", "--tau", "1/4,1/2,1,2"], "predict.csv", None),
    ]
    return [Invocation(tuple(argv + ["--out", out]), (out,), exact=(out,),
                       ref_seed=ref_seed)
            for argv, out, ref_seed in calls]


@dataclass(frozen=True)
class Workload:
    """Walk invocations, plus the suites when ``suites`` is set.  seed_s is
    (wall, CPU, set-up) seconds of the yardstick on the workload at the
    reference speed, to which the harness scales the program's times: the
    median of ten runs on a 2-vCPU Xeon virtual machine at 2.1 GHz."""

    walks: tuple
    seed_s: tuple
    suites: bool = False

    def files(self, seed):
        """Walk configs, by file name."""
        files = {walk.name + ".json": walk_config(walk.n, walk.theta, seed)
                 for walk in self.walks}
        if self.suites:
            files["walk256.json"] = walk_config(256, "1", seed % EXACT_SEEDS)
        return files

    def invocations(self, seed):
        suites = suite_invocations(seed) if self.suites else []
        return suites + [walk.invocation() for walk in self.walks]


WORKLOADS = {
    "theta1-walks": Workload(walks=(
        Walk("marginal", n=256, theta="1", steps=256, ks=(1,), samples=40000,
             times=tuple(range(0, 257, 32))),
        Walk("rows", n=10, theta="1", steps=10, ks=(1, 2), samples=80,
             evolve_steps=3)),
        seed_s=(7.91, 7.81, 0.160)),
    "tables-and-series": Workload(suites=True, walks=(
        Walk("theta-half", n=3, theta="1/2", steps=2, ks=(1, 2), samples=300,
             evolve_steps=2),),
        seed_s=(8.11, 8.00, 0.625)),
}


# -- checks ------------------------------------------------------------------


def body_digest(data):
    """sha256 of a CSV below its provenance line."""
    return hashlib.sha256(data.partition(b"\n")[2]).hexdigest()


def check_exact(data, digest):
    """Problems with an exact output against its reference digest."""
    if not PROVENANCE.match(data.partition(b"\n")[0]):
        return ["provenance line malformed"]
    if digest is None:
        return ["no reference recorded"]
    if body_digest(data) != digest:
        return ["differs from the reference"]
    return []


def parse_stats(data):
    """{(t, k): (mean, var)} from a ``walk sample`` CSV."""
    lines = data.decode().split("\r\n")
    if lines[1] != "time,k,mean,var,stderr":
        raise ValueError("unexpected header %r" % lines[1])
    out = {}
    for line in lines[2:]:
        if line:
            t, k, mean, var, _stderr = line.split(",")
            out[(int(t), int(k))] = (float(mean), float(var))
    return out


def check_stats(data, walk, laws):
    """Problems with a statistics CSV: missing keys, or an estimate farther
    than four standard errors (plus float slack) from its exact value."""
    try:
        stats = parse_stats(data)
    except (ValueError, IndexError) as exc:
        return ["unreadable statistics: %s" % exc]
    if sorted(stats) != sorted(walk.keys()):
        return ["keys %s, expected %s" % (sorted(stats), sorted(walk.keys()))]
    m = walk.samples
    problems = []
    for key, (mean, var, mu4) in laws.items():
        est_mean, est_var = stats[key]
        slack = FLOAT_SLACK * (1 + mean * mean + var)
        se_mean = (var / m) ** 0.5
        var_of_var = max(0, mu4 / m - var * var * (m - 3) / (m * (m - 1)))
        se_var = float(var_of_var) ** 0.5
        for label, est, exact, se in (("mean", est_mean, mean, se_mean),
                                      ("var", est_var, var, se_var)):
            if (not math.isfinite(est)
                    or abs(Fraction(est) - exact) > 4 * Fraction(se) + slack):
                problems.append("t=%d k=%d %s %.12g, exact %.12g, se %.3g"
                                % (key + (label, est, exact, se)))
    return problems
