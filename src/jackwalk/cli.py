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

One table, `_SUITES`, declares each verify suite: the parser, the size
checks, the provenance line and the dispatch all read it.

Exit codes: 0 success, 1 failed checks or a sampling deficit, 2 bad
arguments, config conflicts, or a config or output path that cannot be
opened, 3 resource-budget overruns.
"""

import argparse
import csv
import hashlib
import json
import sys
from fractions import Fraction

from . import __version__
from .asymptotics import (build_V, default_order, limit_covariance,
                          limit_moment, packed_limit_moments, walk_limit_data)
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
        return make_partition(tuple(int(p) for p in text.split(",")))
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


def _write_csv(path, params, header, rows):
    """A provenance line, a header row and `rows`, to `path` or stdout."""
    stream, close = _open_out(path)
    try:
        stream.write(_provenance(params) + "\r\n")
        writer = csv.writer(stream, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if close:
            stream.close()


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


#: each verify suite: (help, name of its checker in `verify`, size options
#: with their defaults, default theta or None for a seeded suite)
_SUITES = {
    "ns": ("operator eigenrelations", "eigenrelation_cases",
           {"max_size": 4, "max_rows": 4, "max_order": 4}, "1"),
    "cauchy": ("kernel expansion", "cauchy_cases", {"degree": 6},
               "symbolic"),
    "stochastic": ("row sums", "stochasticity_cases",
                   {"max_rows": 3, "max_size": 4}, "1"),
    "toeplitz": ("resolvent factorization", "toeplitz_cases",
                 {"symbols": 20, "order": 6}, None),
    "moments": ("moment round trips", "moment_roundtrip_cases",
                {"count": 20, "max_index": 6}, None),
}


def cmd_verify(args):
    suite = args.suite
    _, checker, sizes, theta = _SUITES[suite]
    # a negative size would check nothing
    inputs = {name: getattr(args, name) for name in sizes}
    for name, value in inputs.items():
        if value < 0:
            raise ValueError("--%s must be nonnegative, got %d"
                             % (name.replace("_", "-"), value))
    if inputs.get("max_index") == 0:
        raise ValueError("--max-index must be positive: a round trip of "
                         "no moments checks nothing")
    params = dict(inputs, suite=suite)
    if theta is None:
        params["seed"] = inputs["seed"] = _resolve_seed(args)
    else:
        params["theta"] = args.theta
        inputs["theta"] = _parse_positive_theta(args.theta)
    if suite == "stochastic":
        params["beta"] = args.beta
        inputs["beta"] = parse_fraction(args.beta)
    # looked up at call time, where the benchmark's tracer patches it
    cases = getattr(verify_suites, checker)(**inputs)
    if not cases:
        raise ValueError("these sizes leave the %s suite no case to check"
                         % suite)
    _write_csv(args.out, params, ["suite", "case", "ok"],
               ([suite, label, "pass" if ok else "fail"]
                for label, ok in cases))
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
    moments = packed_limit_moments(2 * order)
    # one profile of the start gives every tau's drift and the kernel,
    # which does not depend on tau
    data = walk_limit_data(cfg.rho, theta, taus, moments, order)
    v_kernel = build_V(data)
    rows = []
    for tau, u_series in zip(taus, data.U):
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
    if cfg.initial:
        sys.stderr.write("note: limit predictions assume a packed start\n")
    return rows


def _write_predictions(path, params, rows):
    _write_csv(path, params, ["tau", "k", "l", "statistic", "value", "exact"],
               ([tau, k, l, stat, float(value), str(value)]
                for tau, k, l, stat, value in rows))


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
        taus = sorted({Fraction(t, cfg.n) for t, _ in stats.keys})
        rows = _limit_predictions(cfg, taus, ks)
    except (StabilityError, ValueError) as exc:
        sys.stderr.write("limit predictions unavailable: %s\n" % exc)
        return 0
    if args.out not in (None, "-"):
        _write_predictions(args.out + ".predictions.csv", params, rows)
    return 0


def cmd_walk_predict(args):
    cfg = _load_walk_config(args)
    ks = _parse_int_list(args.k)
    taus = [parse_fraction(t) for t in args.tau.split(",") if t.strip()]
    params = {"config": cfg.to_json(), "k": ks,
              "tau": [str(t) for t in taus]}
    rows = _limit_predictions(cfg, taus, ks, pairs_only_diagonal=False)
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
    for action, text, shape in (
            ("expand", "power-sum expansion", ("--partition",)),
            ("skew", "skew expansion", ("--partition", "--mu")),
            ("lr", "structure constants", ("--mu", "--eta"))):
        verb = jack_sub.add_parser(action, help=text)
        for option in shape:
            verb.add_argument(option, required=True)
        verb.add_argument("--theta", default="symbolic")
        verb.add_argument("--out")

    verify = sub.add_parser("verify", help="run identity suites")
    v_sub = verify.add_subparsers(dest="suite", required=True)
    suites = [(v_sub.add_parser(name, help=entry[0]), name)
              for name, entry in _SUITES.items()]
    ns_alias = sub.add_parser("ns", help="operator commands")
    ns_alias_sub = ns_alias.add_subparsers(dest="ns_action", required=True)
    # `ns verify` is `verify ns` under another name: one declaration
    suites.append((ns_alias_sub.add_parser("verify",
                                           help="alias for `verify ns`"),
                   "ns"))
    for p, name in suites:
        _, _, sizes, theta = _SUITES[name]
        p.set_defaults(suite=name)
        for option, default in sizes.items():
            p.add_argument("--" + option.replace("_", "-"), type=int,
                           default=default)
        if theta is None:  # only the randomized suites read a seed
            p.add_argument("--seed", type=int)
            p.add_argument("--strict", action="store_true")
        else:
            p.add_argument("--theta", default=theta)
        if name == "stochastic":
            p.add_argument("--beta", default="2/3")
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
        if args.command in ("verify", "ns"):
            return cmd_verify(args)
        if args.command == "walk":
            if args.action == "sample":
                return cmd_walk_sample(args)
            return cmd_walk_predict(args)
        parser.error("unknown command %r" % args.command)
    except (ValueError, ShapeError, DivergenceError, OSError) as exc:
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
