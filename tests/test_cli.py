"""Command-line surface: JSON dumps, verify suites, walk experiments."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import types
from fractions import Fraction

import pytest

from jackwalk import __version__, asymptotics, cli, dynamics, jack
from jackwalk.dynamics import WalkConfig, step_mass_law
from jackwalk.errors import ResourceLimitError
from jackwalk.scalars import as_fraction, scalar_from_json
from jackwalk.specializations import Specialization
from test_dynamics import LastCell

PROVENANCE = re.compile(
    r"^# artifact %s config sha256:[0-9a-f]{12}$" % re.escape(__version__))


def beta_config(tmp_path, seed=9, **overrides):
    cfg = WalkConfig(n=overrides.pop("n", 1),
                     theta=overrides.pop("theta", Fraction(1)),
                     rho=overrides.pop("rho", Specialization.single_beta(1)),
                     seed=seed, **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_json()))
    return str(path)


def test_jack_expand_theta_one(tmp_path, capsys):
    out = tmp_path / "expand.json"
    rc = cli.main(["jack", "expand", "--partition", "2,1", "--theta", "1",
                   "--out", str(out)])
    assert rc == 0
    table = capsys.readouterr().out
    assert "p[1,1,1]" in table and "p[3]" in table
    payload = json.loads(out.read_text())
    assert payload["partition"] == [2, 1]
    terms = {tuple(t["powers"]): as_fraction(scalar_from_json(t["coefficient"]))
             for t in payload["terms"]}
    assert terms == {(1, 1, 1): Fraction(1, 3), (3,): Fraction(-1, 3)}


def test_jack_expand_symbolic_has_middle_term(tmp_path):
    out = tmp_path / "expand.json"
    rc = cli.main(["jack", "expand", "--partition", "2,1", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload["terms"]) == 3
    assert [t["powers"] for t in payload["terms"]] == [[1, 1, 1], [2, 1], [3]]


def test_jack_lr(tmp_path, capsys):
    out = tmp_path / "lr.json"
    rc = cli.main(["jack", "lr", "--mu", "1", "--eta", "1", "--theta", "2",
                   "--out", str(out)])
    assert rc == 0
    table = capsys.readouterr().out
    assert "c[1,1]" in table and "2/3" in table
    payload = json.loads(out.read_text())
    coeffs = {tuple(c["partition"]): as_fraction(scalar_from_json(c["value"]))
              for c in payload["coefficients"]}
    assert coeffs == {(1, 1): Fraction(2, 3), (2,): Fraction(1)}


def test_jack_skew(capsys):
    rc = cli.main(["jack", "skew", "--partition", "2,1", "--mu", "1",
                   "--theta", "1"])
    assert rc == 0
    assert "p[" in capsys.readouterr().out


#: sha256 of the whole stdout (table, then JSON) of symbolic `jack` dumps,
#: recorded before the scalar ring's gcd changed.  Their coefficients come
#: out of hundreds of non-trivial polynomial gcds, so these pin the
#: canonical form of Q(theta) elements.
GOLDEN_JACK = {
    "expand": (["jack", "expand", "--partition", "3,2,1"],
               "83cac248c2d8ed6d64d2c741081b4b1e4597d867a287efb510804f4427563098"),
    "skew": (["jack", "skew", "--partition", "3,2,1", "--mu", "2"],
             "74e232f1342b8b95563e3a00bcec28fddb3ca9c26f9174b9207bdaae66d92809"),
    "lr": (["jack", "lr", "--mu", "2,1", "--eta", "2,1"],
           "4f1f4184e8c20dff4935575f76042fb6c8f806a15f09aa6f2f4997de7a9dcb8d"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_JACK))
def test_jack_symbolic_golden_bytes(capsys, case):
    argv, digest = GOLDEN_JACK[case]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bad_partition_is_usage_error(capsys):
    assert cli.main(["jack", "expand", "--partition", "1,2"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["jack", "expand", "--partition", "1,2"],
    ["jack", "skew", "--partition", "2,1", "--mu", "1,2"],
])
def test_bad_partition_message_names_the_parts(capsys, argv):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == \
        "error: bad partition '1,2': parts not weakly decreasing: (1, 2)\n"


def test_jack_skew_by_the_empty_diagram_is_the_jack_polynomial(capsys):
    # "0" is the empty diagram, and J_{lam/()} = J_lam
    assert cli.main(["jack", "skew", "--partition", "2,1", "--mu", "0",
                     "--theta", "1/2"]) == 0
    skew = capsys.readouterr().out
    assert cli.main(["jack", "expand", "--partition", "2,1",
                     "--theta", "1/2"]) == 0
    expand = capsys.readouterr().out
    table, _, blob = skew.partition("{")
    assert table == expand.partition("{")[0]
    payload = json.loads("{" + blob)
    assert payload["mu"] == []
    assert payload["terms"] == json.loads("{" + expand.partition("{")[2])[
        "terms"]


def test_decimal_theta_rejected(capsys):
    assert cli.main(["jack", "expand", "--partition", "1",
                     "--theta", "0.5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_jack_table_past_cutoff_exits_3(capsys):
    # the table refuses size 25 itself, before psum enumerates its classes
    assert cli.main(["jack", "expand", "--partition", "25"]) == 3
    assert capsys.readouterr().err == \
        "resource limit: Jack table refused at size 25 (cutoff 24)\n"


@pytest.mark.parametrize("argv", [
    ["jack", "expand", "--partition", "1", "--theta", "1/0"],
    ["verify", "ns", "--theta", "1/0"],
    ["verify", "stochastic", "--beta", "1/0"],
], ids=["jack-theta", "ns-theta", "stochastic-beta"])
def test_zero_denominator_is_usage_error(tmp_path, capsys, argv):
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["jack", "expand", "--partition", "2"],
    ["jack", "skew", "--partition", "2,1", "--mu", "1"],
    ["jack", "lr", "--mu", "1", "--eta", "1"],
    ["verify", "ns"],
    ["ns", "verify"],
    ["verify", "cauchy", "--degree", "2"],
    ["verify", "stochastic"],
], ids=" ".join)
@pytest.mark.parametrize("theta", ["0", "-1", "-1/2"])
def test_nonpositive_theta_is_usage_error(tmp_path, capsys, argv, theta):
    assert cli.main(argv + ["--theta=" + theta,
                            "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: theta must be positive, got %s\n" % theta
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "ns", "--max-size", "-1"],
    ["verify", "ns", "--max-rows", "-2"],
    ["verify", "ns", "--max-order", "-1"],
    ["ns", "verify", "--max-rows", "-2"],
    ["verify", "cauchy", "--degree", "-1"],
    ["verify", "stochastic", "--max-rows", "-1"],
    ["verify", "stochastic", "--max-size", "-1"],
    ["verify", "toeplitz", "--symbols", "-1", "--seed", "1"],
    ["verify", "toeplitz", "--order", "-1", "--seed", "1"],
    ["verify", "moments", "--count", "-1", "--seed", "1"],
    ["verify", "moments", "--max-index", "-1", "--seed", "1"],
], ids=" ".join)
def test_negative_sizes_are_usage_errors(tmp_path, capsys, argv):
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    option = next(a for a in argv if a.startswith("--"))
    assert err == "error: %s must be nonnegative, got %s\n" % (
        option, argv[argv.index(option) + 1])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "ns", "--max-order", "0"],
    ["ns", "verify", "--max-order", "0"],
    ["verify", "stochastic", "--max-rows", "0"],
    ["verify", "toeplitz", "--symbols", "0", "--seed", "1"],
    ["verify", "moments", "--count", "0", "--seed", "1"],
    ["verify", "moments", "--max-index", "0", "--seed", "1"],
], ids=" ".join)
def test_vacuous_suites_are_usage_errors(tmp_path, capsys, argv):
    # a suite that checks no case, or only empty round trips, passes
    # nothing
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines()
                if line.startswith("error:")]) == 1
    assert not (tmp_path / "out").exists()


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_verify_cauchy_csv(tmp_path, capsys):
    out = tmp_path / "cauchy.csv"
    rc = cli.main(["verify", "cauchy", "--degree", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert PROVENANCE.match(lines[0])
    assert lines[1] == "suite,case,ok"
    assert len(lines) > 2
    assert all(line.endswith(",pass") for line in lines[2:])
    assert re.search(r"cauchy: \d+/\d+ pass", capsys.readouterr().err)


def test_verify_stochastic(tmp_path):
    out = tmp_path / "rows.csv"
    rc = cli.main(["verify", "stochastic", "--max-rows", "2", "--max-size",
                   "3", "--out", str(out)])
    assert rc == 0
    assert "fail" not in out.read_text()


def test_ns_alias_matches_verify_ns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    flags = ["--max-size", "3", "--max-rows", "2", "--max-order", "2"]
    assert cli.main(["verify", "ns"] + flags + ["--out", str(a)]) == 0
    assert cli.main(["ns", "verify"] + flags + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_seed_handling(tmp_path, capsys):
    out = tmp_path / "t.csv"
    # strict without a seed is a usage error
    rc = cli.main(["verify", "toeplitz", "--symbols", "2", "--strict",
                   "--out", str(out)])
    assert rc == 2
    capsys.readouterr()
    # without --strict a default seed is used, with a warning
    rc = cli.main(["verify", "toeplitz", "--symbols", "2", "--out", str(out)])
    assert rc == 0
    assert "default seed" in capsys.readouterr().err
    rc = cli.main(["verify", "toeplitz", "--symbols", "2", "--seed", "5",
                   "--strict", "--out", str(out)])
    assert rc == 0


def test_verify_moments(tmp_path):
    out = tmp_path / "m.csv"
    rc = cli.main(["verify", "moments", "--count", "5", "--max-index", "4",
                   "--seed", "3", "--out", str(out)])
    assert rc == 0


#: sha256 of whole verify outputs, provenance line included (the line
#: hashes the suite's parameters), recorded before the options that no
#: suite read were removed; `ns verify` writes the same bytes as `verify ns`
_NS_DIGEST = "bd7b7838c1901d7657943668fd5c1a70d7c37ed01b15e23ed1acfe1b61372845"
GOLDEN_VERIFY = {
    "ns": (["verify", "ns", "--max-size", "3", "--max-rows", "3",
            "--max-order", "3"], _NS_DIGEST),
    "ns-alias": (["ns", "verify", "--max-size", "3", "--max-rows", "3",
                  "--max-order", "3"], _NS_DIGEST),
    # recorded before the scalar ring's gcd changed
    "ns-symbolic": (
        ["verify", "ns", "--max-size", "4", "--max-rows", "3",
         "--max-order", "3", "--theta", "symbolic"],
        "3e7e9b4e79f1ef54fd476ca7f1efc3861e392ded627ddabb3c91b7303ab89d5b"),
    "cauchy": (["verify", "cauchy", "--degree", "4"],
               "88ce5a41c56f934f4d1d630ec82b36f9e0f430d155dde9edb4c6dd569aa7c7f4"),
    "stochastic": (
        ["verify", "stochastic", "--max-rows", "2", "--max-size", "3",
         "--theta", "2"],
        "23b5d732409d1fe002b04b491f68c14b64e6e3c1488b277d97ac9bc300a62d59"),
    "toeplitz": (
        ["verify", "toeplitz", "--symbols", "5", "--order", "4", "--seed", "3"],
        "d0f5d8328854a32350f8c6640ebeb49c017af34b927ff646b917ea565d5fbf57"),
    "moments": (
        ["verify", "moments", "--count", "5", "--max-index", "4",
         "--seed", "3"],
        "0f6f168832a321b6fbc524d075347cbc2ace5d0be26ace7ee4a63971d19a470e"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_VERIFY))
def test_verify_golden_bytes(tmp_path, case):
    argv, digest = GOLDEN_VERIFY[case]
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["verify", "ns", "--seed", "1"],
    ["verify", "ns", "--strict"],
    ["verify", "cauchy", "--seed", "1"],
    ["verify", "cauchy", "--strict"],
    ["verify", "stochastic", "--seed", "1"],
    ["verify", "stochastic", "--strict"],
    ["ns", "verify", "--seed", "1"],
    ["ns", "verify", "--strict"],
    ["verify", "toeplitz", "--theta", "1"],
    ["verify", "moments", "--theta", "1"],
    # a prediction draws nothing, so it takes no seed
    ["walk", "predict", "--config", "walk.json", "--seed", "1"],
    ["walk", "predict", "--config", "walk.json", "--strict"],
], ids=" ".join)
def test_verify_rejects_options_no_suite_reads(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_failure_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.verify_suites, "cauchy_cases",
                        lambda degree, theta: [("forced", False)])
    out = tmp_path / "bad.csv"
    rc = cli.main(["verify", "cauchy", "--out", str(out)])
    assert rc == 1
    assert out.read_text().splitlines()[2] == "cauchy,forced,fail"
    assert "0/1 pass" in capsys.readouterr().err


def test_walk_sample_deterministic(tmp_path):
    config = beta_config(tmp_path)
    out = tmp_path / "stats.csv"
    argv = ["walk", "sample", "--config", config, "--steps", "2",
            "--samples", "60", "--k", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    first = out.read_bytes()
    pred = tmp_path / "stats.csv.predictions.csv"
    first_pred = pred.read_bytes()
    assert cli.main(argv) == 0
    assert out.read_bytes() == first
    assert pred.read_bytes() == first_pred

    lines = first.decode().splitlines()
    assert PROVENANCE.match(lines[0])
    assert lines[1] == "time,k,mean,var,stderr"
    assert len(lines) == 5  # times 0, 1, 2

    pred_lines = first_pred.decode().splitlines()
    assert PROVENANCE.match(pred_lines[0])
    assert pred_lines[1] == "tau,k,l,statistic,value,exact"


def test_walk_sample_without_predictions(tmp_path, capsys):
    # a walk with no particles has no limit to predict: the stats are
    # written, one line says why no predictions are, and the exit is 0
    config = beta_config(tmp_path, n=0)
    out = tmp_path / "stats.csv"
    rc = cli.main(["walk", "sample", "--config", config, "--steps", "2",
                   "--samples", "3", "--k", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "time,k,mean,var,stderr" and len(lines) == 5
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err
                if line.startswith("limit predictions unavailable:")]) == 1
    assert not (tmp_path / "stats.csv.predictions.csv").exists()


def test_walk_sample_paths_file(tmp_path):
    config = beta_config(tmp_path)
    paths = tmp_path / "paths.jsonl"
    out = tmp_path / "stats.csv"
    rc = cli.main(["walk", "sample", "--config", config, "--steps", "3",
                   "--samples", "4", "--paths", str(paths),
                   "--out", str(out)])
    assert rc == 0
    records = [json.loads(line) for line in paths.read_text().splitlines()]
    assert len(records) == 4
    for rec in records:
        assert len(rec["path"]) == 4
        assert rec["path"][0] == []


@pytest.mark.parametrize("existing", [None, "kept\n"], ids=["new", "existing"])
def test_refused_walk_sample_leaves_paths_file_alone(tmp_path, capsys,
                                                     existing):
    # the request is refused before any path is drawn: no paths file is
    # created, and one that was there keeps its bytes
    paths = tmp_path / "paths.jsonl"
    if existing is not None:
        paths.write_text(existing)
    rc = cli.main(["walk", "sample", "--config", beta_config(tmp_path),
                   "--steps", "3", "--samples", "4", "--k", "",
                   "--paths", str(paths), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    if existing is None:
        assert not paths.exists()
    else:
        assert paths.read_text() == existing


#: sha256 of `walk sample` outputs below the provenance line: the samplers
#: promise identical bytes for identical invocations, so a faster sampler
#: must reproduce these exactly.  Cases: (config overrides, argv, digest
#: of the stats CSV, digest of the --paths file or None, digest of the
#: exact limit predictions written next to the stats).
_ROWS_STATS = \
    "6d7e39c31efe8df2b9fd02d63f49b6db37c7a810f5441b4173cc108915e065d5"
_ROWS_PREDICTIONS = \
    "03e4122db3da050a980d50057512e17946120d5342c01aec98f91fc634f8ea19"
GOLDEN_WALKS = {
    # two blocks of the Binomial marginal, the second one partial; one
    # draw per interval between the requested times
    "mass-marginal": (
        {"n": 8}, ["--steps", "8", "--times", "0,2,4,6,8",
                   "--samples", "25000"],
        "c507340f79472b780d6f9944e41dbfd3e1b7f6f65438a1ece0af82924e45e39d",
        None,
        "39e2d7145731a704fe74499ab9435a38ddee01c1af54e0169c30de190ccc11b9"),
    "rows": (
        {"n": 4}, ["--steps", "4", "--k", "1,2", "--samples", "40"],
        _ROWS_STATS, None, _ROWS_PREDICTIONS),
    "rows-paths": (
        {"n": 4}, ["--steps", "4", "--k", "1,2", "--samples", "40",
                   "--paths", "paths.jsonl"],
        _ROWS_STATS,
        "2bfa841efa0cc7dd635a3190178389507a72c4c13175768ddd3f001d3ce6f027",
        _ROWS_PREDICTIONS),
    # a deeper rows walk: rows of up to 2^8 strips, cached and revisited
    "rows-deep": (
        {"n": 8}, ["--steps", "8", "--k", "1,2", "--samples", "40"],
        "8377e72a1b1cdd02d8fb28c3228704c2ffb3db02d946fd85185d3b9543304934",
        None,
        "39387aa34b09ad651d743734b57a366b9b68053bd4a89d9e871ae1f9595bbc25"),
    "theta-half": (
        {"n": 2, "theta": Fraction(1, 2)},
        ["--steps", "2", "--k", "1,2", "--samples", "30"],
        "4517d74b3e2dc04da2eea5f7c70b8546f504fe69da32458bb72ff14a6e3c1738",
        None,
        "c2fcfb83c27a672832a04d4549771475c4e31e024724560c3e1bb1adc4fb17cd"),
    # a general-theta walk deep enough that Jack tables would dominate it
    "theta-half-deep": (
        {"n": 4, "theta": Fraction(1, 2)},
        ["--steps", "4", "--k", "1,2", "--samples", "40"],
        "7d6cef46b18960b02da43e3dc741bd70a3ae26ea9bcff46e4b36a94c5b9b27ce",
        None,
        "c5eb361ce0cb1d3ecef59a60880ab90e1d9f374fad8d536dc6b45800b3eff269"),
    # k = 1 alone at theta = 1/2: the Binomial marginal, not the rows
    "theta-half-marginal": (
        {"n": 4, "theta": Fraction(1, 2)},
        ["--steps", "4", "--k", "1", "--samples", "2000"],
        "b5a2b42dea3e5210e1ba9c9661b0133fae8df346dbb85741c0b13f83cd6f3c19",
        None,
        "c30396b2f3c4f3cbdac8e14a89a65f37925f4c28de996aeb0da796b07fce3abd"),
    # the paper's regime, t = N = 256 with every time requested: 257 keys,
    # so the samples fill two blocks of the element budget
    "paper-regime": (
        {"n": 256}, ["--steps", "256", "--samples", "2000"],
        "3c3280ecc0321b48c992ee40bdd67e79aac7baff144f1f1c722ade2c430fc862",
        None,
        "e9796a7d0a412d732622fc32f0a95b25068cffde23158122aa2b0c31af124c75"),
}


def _body_digest(path):
    data = path.read_bytes()
    if path.suffix == ".csv":
        assert PROVENANCE.match(data.partition(b"\r\n")[0].decode())
        data = data.partition(b"\r\n")[2]
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN_WALKS))
def test_walk_sample_golden_bytes(tmp_path, monkeypatch, case):
    overrides, argv, stats_digest, paths_digest, predictions_digest = \
        GOLDEN_WALKS[case]
    config = beta_config(tmp_path, **overrides)
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["walk", "sample", "--config", config, "--out", "stats.csv"]
                  + argv)
    assert rc == 0
    assert _body_digest(tmp_path / "stats.csv") == stats_digest
    assert _body_digest(tmp_path / "stats.csv.predictions.csv") == \
        predictions_digest
    if paths_digest is not None:
        assert _body_digest(tmp_path / "paths.jsonl") == paths_digest


def test_walk_sample_has_no_method_option(tmp_path, capsys):
    # the request alone picks the sampling route
    with pytest.raises(SystemExit) as exc:
        cli.main(["walk", "sample", "--config", beta_config(tmp_path),
                  "--steps", "1", "--samples", "3", "--method", "rows"])
    assert exc.value.code == 2
    assert "--method" in capsys.readouterr().err


def test_walk_sample_general_theta_marginal_within_4_se(tmp_path):
    # theta = 1/2, N = 12: past the row cache's reach, so only the Binomial
    # marginal samples it; every estimate within 4 SE of the exact law
    n, theta, steps, m = 12, Fraction(1, 2), 12, 2000
    config = beta_config(tmp_path, n=n, theta=theta, seed=7)
    out = tmp_path / "stats.csv"
    assert cli.main(["walk", "sample", "--config", config, "--steps",
                     str(steps), "--k", "1", "--samples", str(m),
                     "--out", str(out)]) == 0
    law = step_mass_law(n, 1, theta)
    mean = sum(d * p for d, p in law)
    mu2, mu4 = (sum((d - mean) ** j * p for d, p in law) for j in (2, 4))
    scale = theta * n  # one added box moves the statistic by 1/(theta N)
    for line in out.read_text().splitlines()[2:]:
        t, _, est_mean, est_var, _ = line.split(",")
        t = int(t)
        var = t * mu2 / scale ** 2
        fourth = (t * (mu4 - 3 * mu2 ** 2) + 3 * (t * mu2) ** 2) / scale ** 4
        se_mean = math.sqrt(var / m)
        se_var = math.sqrt(fourth / m - var * var * (m - 3) / (m * (m - 1)))
        exact_mean = Fraction(-(n - 1), 2) + t * mean / scale
        assert abs(float(est_mean) - exact_mean) <= 4 * se_mean + 1e-9, t
        assert abs(float(est_var) - var) <= 4 * se_var + 1e-9, t


BETA_ONE = {"betas": ["1"], "alphas": [], "gamma": "0", "scale": "1"}


GAMMA_ONE = {"gamma": "1"}


def _walk(theta, rho, **extra):
    """A two-row walk config with the given theta and rho."""
    return dict({"N": 2, "theta": theta, "rho": rho, "seed": 1}, **extra)


#: walk configs of the wrong shape, by test id; each must exit 2
BAD_SHAPES = {
    "list-config": [2, "1", BETA_ONE],
    "no-N": {"theta": "1", "rho": BETA_ONE},
    "no-theta": {"N": 2, "rho": BETA_ONE},
    "no-rho": {"N": 2, "theta": "1"},
    "list-rho": _walk("1", [BETA_ONE]),
    "string-betas": _walk("1", {"betas": "12"}),
    "string-alphas": _walk("1", {"betas": ["1"], "alphas": "0"}),
    "dict-union": _walk("1", {"union": BETA_ONE}),
    "list-in-union": _walk("1", {"union": [["1"]]}),
    "string-betas-in-union": _walk("1", {"union": [{"betas": "12"}]}),
    "string-initial": _walk("1", BETA_ONE, initial="1"),
    # N, seed and the parts of initial are JSON integers, taken as they are
    "float-N": dict(_walk("1", BETA_ONE), N=2.5),
    "integral-float-N": dict(_walk("1", BETA_ONE), N=2.0),
    "list-N": dict(_walk("1", BETA_ONE), N=[1]),
    "bool-N": dict(_walk("1", BETA_ONE), N=True),
    "string-N": dict(_walk("1", BETA_ONE), N="2"),
    "bool-seed": _walk("1", BETA_ONE, seed=True),
    "float-seed": _walk("1", BETA_ONE, seed=1.5),
    "list-seed": _walk("1", BETA_ONE, seed=[1]),
    "float-initial-part": _walk("1", BETA_ONE, initial=[2.5]),
    "bool-initial-part": _walk("1", BETA_ONE, initial=[True]),
    # a rho field is a "p/q" string or a JSON integer: a float is not read
    # as its shortest decimal, and a bool is not taken for an integer
    "float-beta": _walk("1", {"betas": [0.1]}),
    "float-gamma": _walk("1", {"gamma": 1e-3}),
    "float-scale": _walk("1", {"betas": ["1"], "scale": 2.0}),
    "bool-alpha": _walk("1", {"betas": ["1"], "alphas": [True]}),
    # a misspelt key is refused, not ignored in favour of its default
    "typo-config-key": _walk("1", BETA_ONE, inital=[2, 1]),
    "typo-rho-key": _walk("1", {"beta": ["1"]}),
    "typo-key-in-union": _walk("1", {"union": [{"betas": ["1"],
                                                 "gama": "1"}]}),
    "key-next-to-union": _walk("1", {"union": [BETA_ONE], "scale": "2"}),
}


@pytest.mark.parametrize("config, argv", [
    # half a copy of a beta atom: the row from () weighs (2,) at -1/16
    (_walk("1", {"betas": ["1/2"], "scale": "1/2"}), []),
    (_walk("symbolic", BETA_ONE), []),
    (_walk("-1", BETA_ONE), []),
    # the step kernel H(rho; 1^N) diverges
    (_walk("1", {"alphas": ["1"]}), []),
    (_walk("1", BETA_ONE), ["--samples", "0"]),
    (_walk("1", BETA_ONE), ["--k", "-1"]),
    (_walk("1", BETA_ONE), ["--k", ""]),
    (_walk("1", BETA_ONE), ["--times", ","]),
    (_walk("1", BETA_ONE), ["--k", "1,1"]),
    (_walk("1", BETA_ONE), ["--k", "1,2,1"]),
    (_walk("1", BETA_ONE), ["--steps", "-1", "--k", "1,2"]),
    (_walk("1", GAMMA_ONE, step_truncation="3"), []),
    (_walk("1", GAMMA_ONE, step_truncation=0), []),
    (_walk("1", GAMMA_ONE, step_truncation=-1), []),
    (_walk("1", GAMMA_ONE, step_truncation=True), []),
    (_walk("1/0", BETA_ONE), []),
    (_walk({"num": [1.5], "den": [1]}, BETA_ONE), []),
    (_walk({"num": [1], "den": [0]}, BETA_ONE), []),
    (_walk({"num": [True], "den": [1]}, BETA_ONE), []),
    (_walk("1", {"betas": ["1/0"]}), []),
    (_walk("1", {"gamma": "1/0"}), []),
] + [(config, []) for config in BAD_SHAPES.values()],
    ids=["fractional-beta-scale", "symbolic-theta", "negative-theta",
         "divergent-alpha", "no-samples", "negative-k", "empty-k",
         "empty-times", "repeated-k", "one-repeated-k", "negative-steps",
         "string-truncation",
         "zero-truncation", "negative-truncation", "bool-truncation",
         "zero-denominator-theta", "float-coefficient-theta",
         "zero-polynomial-denominator-theta", "bool-coefficient-theta",
         "zero-denominator-beta", "zero-denominator-gamma"]
    + list(BAD_SHAPES))
def test_walk_sample_bad_input_exits_2(tmp_path, capsys, config, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "s.csv"
    rc = cli.main(["walk", "sample", "--config", str(path), "--steps", "2",
                   "--samples", "3", "--out", str(out)] + argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert len([line for line in err.splitlines()
                if line.startswith("error:")]) == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_walk_sample_seed_flag_is_validated(tmp_path, capsys, seed):
    # --seed on a config without one builds a new config, which validates
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"N": 2, "theta": "1", "rho": BETA_ONE}))
    out = tmp_path / "s.csv"
    rc = cli.main(["walk", "sample", "--config", str(path), "--steps", "2",
                   "--samples", "3", "--seed", seed, "--out", str(out)])
    assert rc == 2
    assert "error: seed must fit in 64 bits" in capsys.readouterr().err
    assert not out.exists()


def test_walk_sample_deficit_exit_code(tmp_path, monkeypatch, capsys):
    # a gamma row keeps a tail of at most 2^-32; a draw inside it exits 1
    monkeypatch.setattr(dynamics, "random", types.SimpleNamespace(
        Random=LastCell))
    config = beta_config(tmp_path,
                         rho=Specialization.plancherel(Fraction(1, 10)))
    out = tmp_path / "stats.csv"
    rc = cli.main(["walk", "sample", "--config", config, "--steps", "2",
                   "--samples", "5", "--out", str(out)])
    assert rc == 1
    assert "deficit" in capsys.readouterr().err


@pytest.mark.parametrize("n, rho", [
    (2, {"gamma": "1/10"}),
    (1, {"gamma": "1/64", "scale": "1/2"}),
    (3, {"alphas": ["1/10"]}),
], ids=["gamma-tenth", "half-gamma", "alpha-tenth"])
def test_walks_of_unbounded_reach_sample(tmp_path, capsys, n, rho):
    # each row is cut where the step mass law leaves a tail of 2^-32 or
    # less, so the default config samples
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"N": n, "theta": "1", "rho": rho,
                                "seed": 5}))
    out = tmp_path / "stats.csv"
    rc = cli.main(["walk", "sample", "--config", str(path), "--steps", "1",
                   "--samples", "3", "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 2 + 2


def test_walk_of_too_much_step_mass_exits_3_before_any_table(tmp_path,
                                                             capsys):
    # alpha = 1/2 at N = 2 keeps a tail above 2^-32 past the size-24 cutoff
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_walk("1", {"alphas": ["1/2"]})))
    done = set(jack.basis_for(Fraction(1))._done)
    rc = cli.main(["walk", "sample", "--config", str(path), "--steps", "1",
                   "--samples", "1", "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    assert "cutoff" in capsys.readouterr().err
    assert jack.basis_for(Fraction(1))._done == done


def test_kernel_past_decimal_range_exits_3(tmp_path, capsys):
    # gamma = 10^7 at N = 1: H = exp(10^7) has no decimal exponent
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_walk("1", {"gamma": "10000000"}, N=1)))
    rc = cli.main(["walk", "sample", "--config", str(path), "--steps", "1",
                   "--samples", "1", "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    assert "exponent range" in capsys.readouterr().err


def test_walk_too_large_for_float_statistics_exits_3(tmp_path, capsys):
    # at N = 10^8 the k = 1 marginal's integers pass 2^53: the walk is
    # refused before any draw, so no stats file is written
    config = beta_config(tmp_path, n=10 ** 8)
    out = tmp_path / "stats.csv"
    rc = cli.main(["walk", "sample", "--config", config, "--steps", "1",
                   "--samples", "1", "--k", "1", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == \
        "resource limit: walk too large for exact float statistics\n"
    assert not out.exists()


def test_walk_sample_resource_exit_code(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise ResourceLimitError("forced")

    monkeypatch.setattr(cli, "path_statistics", boom)
    config = beta_config(tmp_path)
    rc = cli.main(["walk", "sample", "--config", config, "--steps", "1",
                   "--samples", "1", "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    assert "resource limit" in capsys.readouterr().err


def test_internal_zero_division_is_not_a_usage_error(tmp_path, monkeypatch):
    # only malformed input exits 2; a ZeroDivisionError from inside the
    # program is a fault and keeps its traceback
    def boom(*args, **kwargs):
        raise ZeroDivisionError("forced")

    monkeypatch.setattr(cli, "path_statistics", boom)
    with pytest.raises(ZeroDivisionError):
        cli.main(["walk", "sample", "--config", beta_config(tmp_path),
                  "--steps", "1", "--samples", "1",
                  "--out", str(tmp_path / "s.csv")])


def test_walk_seed_conflict(tmp_path, capsys):
    config = beta_config(tmp_path, seed=3)
    rc = cli.main(["walk", "sample", "--config", config, "--steps", "1",
                   "--samples", "1", "--seed", "4",
                   "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "conflicts" in capsys.readouterr().err


def test_walk_strict_needs_seed(tmp_path, capsys):
    raw = WalkConfig(1, Fraction(1), Specialization.single_beta(1)).to_json()
    del raw["seed"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    rc = cli.main(["walk", "sample", "--config", str(config), "--steps", "1",
                   "--samples", "1", "--strict",
                   "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    capsys.readouterr()
    # same config without --strict runs on the default seed
    rc = cli.main(["walk", "sample", "--config", str(config), "--steps", "1",
                   "--samples", "1", "--out", str(tmp_path / "s.csv")])
    assert rc == 0
    assert "default seed" in capsys.readouterr().err


def test_walk_predict_frozen_values(tmp_path):
    config = beta_config(tmp_path)
    out = tmp_path / "pred.csv"
    rc = cli.main(["walk", "predict", "--config", config, "--k", "1,2",
                   "--tau", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert PROVENANCE.match(lines[0])
    assert lines[1] == "tau,k,l,statistic,value,exact"
    rows = {}
    for line in lines[2:]:
        tau, k, l, stat, value, exact = line.split(",")
        rows[(k, l, stat)] = Fraction(exact)
    assert rows == {("1", "", "mean"): Fraction(0),
                    ("2", "", "mean"): Fraction(1, 3),
                    ("1", "1", "covariance"): Fraction(1, 4),
                    ("1", "2", "covariance"): Fraction(0),
                    ("2", "2", "covariance"): Fraction(1, 8)}


#: sha256 of `walk predict --k 1..8 --tau 1/4,1/2,1,2` below the provenance
#: line, on a packed theta = 1, N = 256 single-beta config: moments and
#: covariances to order 8, the paper's regime
GOLDEN_PREDICT_K8 = \
    "896d446cac9bdcb8e9c24400be015df68a167fb71de53c5548cc073c17bb3b68"


def test_walk_predict_paper_regime_golden_bytes(tmp_path):
    out = tmp_path / "pred.csv"
    rc = cli.main(["walk", "predict", "--config", beta_config(tmp_path, n=256),
                   "--k", "1,2,3,4,5,6,7,8", "--tau", "1/4,1/2,1,2",
                   "--out", str(out)])
    assert rc == 0
    assert _body_digest(out) == GOLDEN_PREDICT_K8


def test_walk_predict_calls_limit_layer_through_cli(tmp_path, monkeypatch):
    # the benchmark's tracer wraps these names in jackwalk.cli, so a
    # prediction must look each of them up there
    calls = dict.fromkeys(["walk_limit_data", "build_V", "limit_moment",
                           "limit_covariance"], 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(cli, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(cli, name, counted)
    rc = cli.main(["walk", "predict", "--config", beta_config(tmp_path),
                   "--k", "1,2", "--tau", "1/2,1",
                   "--out", str(tmp_path / "pred.csv")])
    assert rc == 0
    assert all(calls.values()), calls


def test_walk_predict_builds_the_start_profile_once(tmp_path, monkeypatch):
    # the drift at every tau and the kernel come from one profile series
    calls = []
    real = asymptotics.profile_series

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(asymptotics, "profile_series", counted)
    rc = cli.main(["walk", "predict", "--config", beta_config(tmp_path),
                   "--k", "1,2", "--tau", "1/2,1",
                   "--out", str(tmp_path / "pred.csv")])
    assert rc == 0
    assert calls == [16]    # once, to 2 * default_order([1, 2])


def _modules_cli_import_adds(names):
    """Which of `names` a fresh interpreter loads by importing the CLI;
    modules a site hook loaded before the import do not count."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys; before = set(sys.modules); import jackwalk.cli; "
             "print(' '.join(sorted(set(%r) & (set(sys.modules) - before))))"
             % (names,))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def test_cli_import_leaves_numpy_unloaded():
    # numpy costs about 0.1 s to import and only the mass-marginal route
    # needs it, so it loads there, not with the CLI
    assert _modules_cli_import_adds(["numpy"]) == []


def test_cli_import_leaves_dataclasses_unloaded():
    # dataclasses pulls in inspect, ast, dis and tokenize, about 17 ms of
    # every process's start-up: the records are namedtuples instead
    assert _modules_cli_import_adds(["dataclasses", "inspect"]) == []


PREDICT_CONFIG = {"N": 10, "theta": "1", "rho": {"betas": ["1"]}}


@pytest.mark.parametrize("config, argv", [
    (PREDICT_CONFIG, ["--k", "-1"]),
    (PREDICT_CONFIG, ["--k", "1,-2"]),
    (PREDICT_CONFIG, ["--tau", "-1"]),
    (PREDICT_CONFIG, ["--tau", "1/2,-1/3"]),
    (PREDICT_CONFIG, ["--k", ""]),
    (PREDICT_CONFIG, ["--tau", ","]),
    (PREDICT_CONFIG, ["--tau", "1/0"]),
    (PREDICT_CONFIG, ["--tau", "1/2,3/0"]),
    (PREDICT_CONFIG, ["--k", "1,1"]),
    (PREDICT_CONFIG, ["--tau", "1,1"]),
    (PREDICT_CONFIG, ["--tau", "1/2,1,2/4"]),
] + [(config, []) for config in BAD_SHAPES.values()],
    ids=["negative-k", "one-negative-k", "negative-tau", "one-negative-tau",
         "empty-k", "empty-tau", "zero-denominator-tau",
         "one-zero-denominator-tau", "repeated-k", "repeated-tau",
         "equal-taus"] + list(BAD_SHAPES))
def test_walk_predict_bad_input_exits_2(tmp_path, capsys, config, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "pred.csv"
    rc = cli.main(["walk", "predict", "--config", str(path),
                   "--out", str(out)] + argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert len([line for line in err.splitlines()
                if line.startswith("error:")]) == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_walk_predict_reads_no_seed(tmp_path, capsys):
    # the config's seed is accepted and moves only the provenance line;
    # without one, predict says nothing about a default seed
    bodies = []
    for extra in ({}, {"seed": 3}):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(PREDICT_CONFIG, **extra)))
        out = tmp_path / "pred.csv"
        assert cli.main(["walk", "predict", "--config", str(path),
                         "--k", "1,2", "--out", str(out)]) == 0
        assert "seed" not in capsys.readouterr().err
        bodies.append(_body_digest(out))
    assert bodies[0] == bodies[1]


def test_walk_predict_half_time(tmp_path):
    config = beta_config(tmp_path)
    out = tmp_path / "pred.csv"
    rc = cli.main(["walk", "predict", "--config", config, "--k", "1",
                   "--tau", "1/2,1", "--out", str(out)])
    assert rc == 0
    means = {}
    for line in out.read_text().splitlines()[2:]:
        tau, k, l, stat, value, exact = line.split(",")
        if stat == "mean":
            means[tau] = Fraction(exact)
    assert means == {"1/2": Fraction(-1, 4), "1": Fraction(0)}


def test_walk_predict_alpha_atom_of_one_exits_2(tmp_path, capsys):
    # an alpha atom of 1 puts a pole at z = 1, where the limits expand
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_walk("1", {"alphas": ["1"]})))
    out = tmp_path / "pred.csv"
    rc = cli.main(["walk", "predict", "--config", str(path),
                   "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == ("error: alpha parameters must stay "
                                       "below 1 for expansions about 1\n")
    assert not out.exists()


@pytest.mark.parametrize("initial, notes", [((), 0), ((2, 1), 1)],
                         ids=["packed", "start-2-1"])
def test_packed_start_note_is_printed_once(tmp_path, capsys, initial, notes):
    config = beta_config(tmp_path, n=4, initial=initial)
    for argv in (["walk", "sample", "--steps", "2", "--samples", "5"],
                 ["walk", "predict"]):
        assert cli.main(argv + ["--config", config, "--k", "1,2",
                                "--out", str(tmp_path / "out.csv")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err.count("note: limit predictions assume a packed start") \
            == notes


def test_walk_predict_moment_zero(tmp_path):
    # the k = 0 statistic is the constant 1: mean 1, no fluctuation
    out = tmp_path / "pred.csv"
    assert cli.main(["walk", "predict", "--config", beta_config(tmp_path),
                     "--k", "0,1", "--out", str(out)]) == 0
    rows = {}
    for line in out.read_text().splitlines()[2:]:
        tau, k, l, stat, value, exact = line.split(",")
        rows[(k, l, stat)] = Fraction(exact)
    assert rows[("0", "", "mean")] == 1
    assert rows[("0", "0", "covariance")] == 0
    assert rows[("0", "1", "covariance")] == 0


@pytest.mark.parametrize("argv", [
    ["walk", "sample", "--config", "missing.json", "--steps", "1",
     "--samples", "1"],
    ["walk", "predict", "--config", "missing.json"],
    ["verify", "cauchy", "--degree", "2", "--out", "gone/cauchy.csv"],
    ["walk", "predict", "--config", "config.json", "--out", "gone/pred.csv"],
    ["walk", "sample", "--config", "config.json", "--steps", "1",
     "--samples", "1", "--paths", "gone/paths.jsonl"],
], ids=["sample-config", "predict-config", "verify-out", "predict-out",
        "sample-paths"])
def test_unopenable_path_exits_2(tmp_path, monkeypatch, capsys, argv):
    # a config that cannot be read, or an output that cannot be written,
    # is a bad argument: one error line, no traceback, no stats file
    beta_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "stats.csv").exists()
