"""Command-line entry point.

Subcommands:

    jack expand|lr|skew     dump deformed-basis data as JSON + text table
    verify SUITE            run an exact identity suite, pass/fail CSV
    ns verify               alias for `verify ns`
    walk sample|predict     Monte Carlo walks and their limit predictions

Exactness carries through the surface: theta is an exact fraction string
("p/q" or "symbolic"; decimals are rejected), seeds are explicit, every
CSV starts with a provenance comment (tool version + config hash) and a
header row, and identical invocations produce identical bytes.

Exit codes: 0 success, 1 failed checks or a sampling deficit, 2 bad
arguments or config conflicts, 3 resource-budget overruns.
"""

import argparse
import csv
import hashlib
import json
import sys
from fractions import Fraction

from . import __version__
from .asymptotics import (build_V, default_order, limit_covariance,
                          limit_moment, packed_limit_moments,
                          walk_drift_series, walk_limit_data)
from .dynamics import WalkConfig, path_statistics
from .errors import (DeficitError, DivergenceError, ResourceLimitError,
                     ShapeError, StabilityError)
from .jack import jack_polynomial, lr_expand, skew_jack
from .partitions import make_partition
from .scalars import (RationalFunction, as_fraction, parse_fraction,
                      parse_theta, scalar_to_json)
from . import verify as verify_suites


def _parse_partition(text):
    text = text.strip()
    if text in ("", "0", "-"):
        return ()
    try:
        return make_partition(int(p) for p in text.split(","))
    except (ValueError, TypeError) as exc:
        raise ValueError("bad partition %r: %s" % (text, exc))


def _parse_positive_theta(text):
    """parse_theta, refusing a numeric theta <= 0: the Jack basis, its
    norms and the operators are not defined there."""
    theta = parse_theta(text)
    if not isinstance(theta, RationalFunction) and theta <= 0:
        raise ValueError("theta must be positive, got %s" % theta)
    return theta


def _parse_int_list(text):
    return [int(p) for p in text.split(",") if p.strip()]


def _config_hash(params):
    blob = json.dumps(params, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _provenance(params):
    return "# artifact %s config sha256:%s" % (__version__,
                                               _config_hash(params))


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _write_table(rows, stream):
    if not rows:
        return
    width = max(len(left) for left, _ in rows)
    for left, right in rows:
        stream.write("%s  %s\n" % (left.ljust(width), right))


def _poly_json(poly):
    return [{"powers": list(key), "coefficient": scalar_to_json(coeff)}
            for key, coeff in sorted(poly.terms.items())]


def _poly_table(poly):
    rows = []
    for key, coeff in sorted(poly.terms.items()):
        name = "p[%s]" % ",".join(str(i) for i in key) if key else "1"
        rows.append((name, str(coeff)))
    return rows


# ---------------------------------------------------------------------------
# jack
# ---------------------------------------------------------------------------


def cmd_jack(args):
    theta = _parse_positive_theta(args.theta)
    if args.action == "expand":
        lam = _parse_partition(args.partition)
        poly = jack_polynomial(lam, theta)
        payload = {"partition": list(lam), "theta": args.theta,
                   "terms": _poly_json(poly)}
        table = _poly_table(poly)
    elif args.action == "skew":
        lam = _parse_partition(args.partition)
        mu = _parse_partition(args.mu)
        poly = skew_jack(lam, mu, theta)
        payload = {"partition": list(lam), "mu": list(mu),
                   "theta": args.theta, "terms": _poly_json(poly)}
        table = _poly_table(poly)
    else:  # lr
        mu = _parse_partition(args.mu)
        eta = _parse_partition(args.eta)
        coeffs = lr_expand(mu, eta, theta)
        payload = {"mu": list(mu), "eta": list(eta), "theta": args.theta,
                   "coefficients": [
                       {"partition": list(lam),
                        "value": scalar_to_json(value)}
                       for lam, value in sorted(coeffs.items())]}
        table = [("c[%s]" % ",".join(str(p) for p in lam), str(value))
                 for lam, value in sorted(coeffs.items())]
    blob = json.dumps(payload, indent=2, sort_keys=True)
    _write_table(table, sys.stdout)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(blob + "\n")
    else:
        sys.stdout.write(blob + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _resolve_seed(args):
    if args.seed is not None:
        return args.seed
    if args.strict:
        raise ValueError("--strict requires an explicit --seed")
    sys.stderr.write("no --seed given; using default seed 0\n")
    return 0


#: the size options of each suite; a negative one would check nothing
_SUITE_SIZES = {
    "ns": ("max_size", "max_rows", "max_order"),
    "cauchy": ("degree",),
    "stochastic": ("max_rows", "max_size"),
    "toeplitz": ("symbols", "order"),
    "moments": ("count", "max_index"),
}


def cmd_verify(args):
    suite = args.suite
    for name in _SUITE_SIZES[suite]:
        value = getattr(args, name)
        if value < 0:
            raise ValueError("--%s must be nonnegative, got %d"
                             % (name.replace("_", "-"), value))
    if suite == "moments" and args.max_index == 0:
        raise ValueError("--max-index must be positive: a round trip of "
                         "no moments checks nothing")
    if suite == "ns":
        cases = verify_suites.eigenrelation_cases(
            args.max_size, args.max_rows, args.max_order,
            _parse_positive_theta(args.theta))
        params = {"suite": suite, "max_size": args.max_size,
                  "max_rows": args.max_rows, "max_order": args.max_order,
                  "theta": args.theta}
    elif suite == "cauchy":
        cases = verify_suites.cauchy_cases(
            args.degree, _parse_positive_theta(args.theta))
        params = {"suite": suite, "degree": args.degree, "theta": args.theta}
    elif suite == "stochastic":
        cases = verify_suites.stochasticity_cases(
            args.max_rows, args.max_size, _parse_positive_theta(args.theta),
            beta=parse_fraction(args.beta))
        params = {"suite": suite, "max_rows": args.max_rows,
                  "max_size": args.max_size, "theta": args.theta,
                  "beta": args.beta}
    elif suite == "toeplitz":
        seed = _resolve_seed(args)
        cases = verify_suites.toeplitz_cases(args.symbols, args.order, seed)
        params = {"suite": suite, "symbols": args.symbols,
                  "order": args.order, "seed": seed}
    else:  # moments
        seed = _resolve_seed(args)
        cases = verify_suites.moment_roundtrip_cases(
            args.count, args.max_index, seed)
        params = {"suite": suite, "count": args.count,
                  "max_index": args.max_index, "seed": seed}

    if not cases:
        raise ValueError("these sizes leave the %s suite no case to check"
                         % suite)

    stream, close = _open_out(args.out)
    try:
        stream.write(_provenance(params) + "\r\n")
        writer = csv.writer(stream, lineterminator="\r\n")
        writer.writerow(["suite", "case", "ok"])
        for label, ok in cases:
            writer.writerow([suite, label, "pass" if ok else "fail"])
    finally:
        if close:
            stream.close()
    passed = sum(1 for _, ok in cases if ok)
    sys.stderr.write("%s: %d/%d pass\n" % (suite, passed, len(cases)))
    return 0 if passed == len(cases) else 1


# ---------------------------------------------------------------------------
# walk
# ---------------------------------------------------------------------------


def _load_walk_config(args):
    """The walk config; `walk sample` takes its seed from --seed or the
    config, and `walk predict`, which draws nothing, reads neither."""
    with open(args.config) as handle:
        raw = json.load(handle)
    cfg = WalkConfig.from_json(raw)
    if args.action == "predict":
        return cfg
    if args.seed is not None:
        # from_json took a config seed only as a JSON integer
        if "seed" in raw and cfg.seed != args.seed:
            raise ValueError(
                "seed %d from --seed conflicts with seed %s in %s"
                % (args.seed, raw["seed"], args.config))
        cfg = WalkConfig(cfg.n, cfg.theta, cfg.rho, cfg.initial, args.seed)
    elif "seed" not in raw:
        if args.strict:
            raise ValueError("--strict requires a seed (flag or config)")
        sys.stderr.write("no seed given; using default seed 0\n")
    return cfg


def _limit_predictions(cfg, taus, ks, pairs_only_diagonal=True):
    """Rows (tau, k, l, statistic, value) of the limiting mean/covariance.
    No k, no tau, or a negative or repeated k or tau raises ValueError."""
    if not ks:
        raise ValueError("need at least one moment index k")
    if not taus:
        raise ValueError("need at least one time tau")
    if any(k < 0 for k in ks):
        raise ValueError("moment indices k must be nonnegative")
    if any(tau < 0 for tau in taus):
        raise ValueError("times tau must be nonnegative")
    if len(set(ks)) < len(ks) or len(set(taus)) < len(taus):
        raise ValueError("moment indices k and times tau must not repeat")
    theta = as_fraction(cfg.theta)
    order = default_order(ks)
    moments = packed_limit_moments(2 * order + 1)
    # the covariance kernel does not depend on tau: build it once
    v_kernel = build_V(walk_limit_data(cfg.rho, theta, taus[0], moments,
                                       order))
    rows = []
    drifts = walk_drift_series(cfg.rho, theta, taus, moments, order)
    for tau, u_series in zip(taus, drifts):
        for k in ks:
            rows.append((tau, k, "", "mean",
                         limit_moment(k, u_series, theta)))
        for i, k in enumerate(ks):
            for l in ks[i:]:
                if pairs_only_diagonal and l != k:
                    continue
                rows.append((tau, k, l, "covariance",
                             limit_covariance(k, l, u_series, v_kernel,
                                              theta)))
    return rows


def _write_predictions(path, params, rows):
    stream, close = _open_out(path)
    try:
        stream.write(_provenance(params) + "\r\n")
        writer = csv.writer(stream, lineterminator="\r\n")
        writer.writerow(["tau", "k", "l", "statistic", "value", "exact"])
        for tau, k, l, stat, value in rows:
            writer.writerow([tau, k, l, stat, float(value), str(value)])
    finally:
        if close:
            stream.close()


def cmd_walk_sample(args):
    cfg = _load_walk_config(args)
    ks = _parse_int_list(args.k)
    times = _parse_int_list(args.times) if args.times is not None else None
    params = {"config": cfg.to_json(), "steps": args.steps,
              "samples": args.samples, "k": ks, "times": times}

    # the paths file is opened at the first path, which path_statistics
    # passes on only once it has accepted the request: a refused request
    # neither creates nor truncates it
    jsonl = None

    def write_path(path):
        nonlocal jsonl
        if jsonl is None:
            jsonl = open(args.paths, "w")
        jsonl.write(json.dumps({"path": [list(lam) for lam in path]}) + "\n")

    try:
        stats = path_statistics(cfg, args.steps, args.samples, ks,
                                times=times,
                                on_path=write_path if args.paths else None)
    finally:
        if jsonl is not None:
            jsonl.close()

    stream, close = _open_out(args.out)
    try:
        stream.write(_provenance(params) + "\r\n")
        stats.write_csv(stream)
    finally:
        if close:
            stream.close()

    # limit predictions next to the estimates, when the step data admits them
    try:
        if cfg.n <= 0:
            raise ValueError("positive N needed for limit predictions")
        taus = sorted({Fraction(t, cfg.n)
                       for t in (times or range(args.steps + 1))})
        rows = _limit_predictions(cfg, taus, ks)
    except (StabilityError, ValueError) as exc:
        sys.stderr.write("limit predictions unavailable: %s\n" % exc)
        return 0
    if cfg.initial:
        sys.stderr.write("note: limit predictions assume a packed start\n")
    if args.out not in (None, "-"):
        pred_path = args.out + ".predictions.csv"
        _write_predictions(pred_path, params, rows)
    return 0


def cmd_walk_predict(args):
    cfg = _load_walk_config(args)
    ks = _parse_int_list(args.k)
    taus = [parse_fraction(t) for t in args.tau.split(",") if t.strip()]
    params = {"config": cfg.to_json(), "k": ks,
              "tau": [str(t) for t in taus]}
    rows = _limit_predictions(cfg, taus, ks, pairs_only_diagonal=False)
    if cfg.initial:
        sys.stderr.write("note: limit predictions assume a packed start\n")
    _write_predictions(args.out, params, rows)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="jackwalk",
        description="Exact deformed-basis computations, identity suites, "
                    "and Young-diagram walk experiments.")
    parser.add_argument("--version", action="version",
                        version="artifact " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    jack = sub.add_parser("jack", help="dump basis data")
    jack_sub = jack.add_subparsers(dest="action", required=True)
    expand = jack_sub.add_parser("expand", help="power-sum expansion")
    expand.add_argument("--partition", required=True)
    expand.add_argument("--theta", default="symbolic")
    expand.add_argument("--out")
    skew = jack_sub.add_parser("skew", help="skew expansion")
    skew.add_argument("--partition", required=True)
    skew.add_argument("--mu", required=True)
    skew.add_argument("--theta", default="symbolic")
    skew.add_argument("--out")
    lr = jack_sub.add_parser("lr", help="structure constants")
    lr.add_argument("--mu", required=True)
    lr.add_argument("--eta", required=True)
    lr.add_argument("--theta", default="symbolic")
    lr.add_argument("--out")

    verify = sub.add_parser("verify", help="run identity suites")
    v_sub = verify.add_subparsers(dest="suite", required=True)
    ns_alias = sub.add_parser("ns", help="operator commands")
    ns_alias_sub = ns_alias.add_subparsers(dest="ns_action", required=True)
    # `ns verify` is `verify ns` under another name: one declaration
    for ns in (v_sub.add_parser("ns", help="operator eigenrelations"),
               ns_alias_sub.add_parser("verify",
                                       help="alias for `verify ns`")):
        ns.add_argument("--max-size", type=int, default=4)
        ns.add_argument("--max-rows", type=int, default=4)
        ns.add_argument("--max-order", type=int, default=4)
        ns.add_argument("--theta", default="1")
        ns.add_argument("--out")
    cauchy = v_sub.add_parser("cauchy", help="kernel expansion")
    cauchy.add_argument("--degree", type=int, default=6)
    cauchy.add_argument("--theta", default="symbolic")
    stoch = v_sub.add_parser("stochastic", help="row sums")
    stoch.add_argument("--max-rows", type=int, default=3)
    stoch.add_argument("--max-size", type=int, default=4)
    stoch.add_argument("--theta", default="1")
    stoch.add_argument("--beta", default="2/3")
    # only the randomized suites read a seed
    toep = v_sub.add_parser("toeplitz", help="resolvent factorization")
    toep.add_argument("--symbols", type=int, default=20)
    toep.add_argument("--order", type=int, default=6)
    mom = v_sub.add_parser("moments", help="moment round trips")
    mom.add_argument("--count", type=int, default=20)
    mom.add_argument("--max-index", type=int, default=6)
    for p in (toep, mom):
        p.add_argument("--seed", type=int)
        p.add_argument("--strict", action="store_true")
    for p in (cauchy, stoch, toep, mom):
        p.add_argument("--out")

    walk = sub.add_parser("walk", help="walk experiments")
    walk_sub = walk.add_subparsers(dest="action", required=True)
    sample = walk_sub.add_parser("sample", help="Monte Carlo statistics")
    sample.add_argument("--config", required=True)
    sample.add_argument("--steps", type=int, required=True)
    sample.add_argument("--samples", type=int, required=True)
    sample.add_argument("--k", default="1")
    sample.add_argument("--times")
    sample.add_argument("--out", default="stats.csv")
    sample.add_argument("--paths", help="stream paths to this JSON-lines file")
    sample.add_argument("--seed", type=int)
    sample.add_argument("--strict", action="store_true")
    predict = walk_sub.add_parser("predict", help="limiting moments")
    predict.add_argument("--config", required=True)
    predict.add_argument("--k", default="1")
    predict.add_argument("--tau", default="1")
    predict.add_argument("--out")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "jack":
            return cmd_jack(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "ns":
            args.suite = "ns"
            return cmd_verify(args)
        if args.command == "walk":
            if args.action == "sample":
                return cmd_walk_sample(args)
            return cmd_walk_predict(args)
        parser.error("unknown command %r" % args.command)
    except (ValueError, ShapeError, DivergenceError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except DeficitError as exc:
        sys.stderr.write("deficit: %s\n" % exc)
        return 1
    except ResourceLimitError as exc:
        sys.stderr.write("resource limit: %s\n" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
