"""Benchmark of the jackwalk CLI: end-to-end metrics, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of the workloads in
``workloads.py``, or ``all`` to run each in turn.  Each invocation of a
workload runs the CLI from ``src/`` in a fresh interpreter, one process at a
time.  A run repeats the workload until S seconds have passed (at least
MIN_REPS times, all with the same seed) and reports medians over the
repetitions:

    wall_s       spawn to exit of each process, summed over processes
    cpu_s        user + system CPU time of the processes
    setup_s      spawn to ``jackwalk.cli`` imported, summed over processes
    peak_rss_mb  largest ``ru_maxrss`` of any process
    items_per_s  sampled paths plus verify cases and prediction rows, per
                 wall second (also printed apart as paths_per_s, cases_per_s)

The three times are measured against a yardstick.  ``yardstick/jackwalk`` is
a frozen copy of the program's Python sources as they were when the
benchmark was written (without the C kernel, so it always takes the pure
twin).  Every invocation of the program runs right before or after the same
invocation of the yardstick, the order alternating.  A time is reported as
the program's over the yardstick's in the same repetition, times
``Workload.seed_s``, the yardstick's time at a reference speed.  On a shared
virtual machine the speed of a core drifts by 10-30% over tens of seconds
to minutes and moves both sides alike, so the quotient keeps what the
program changed and drops most of the drift.  The raw times of both sides
are printed beside them.  The harness and its children run on one CPU, so
both sides of a pair run on the same core, and both read their bytecode
from ``_work/pycache``, which the harness fills before it times anything.

Every invocation is an operation; it fails when it exits non-zero, when an
output check in ``workloads.py`` fails, or when its outputs differ from those
of the first repetition (same seed, so they must be byte-identical).

With ``--trace 1`` repetitions alternate between untraced and traced; the
traced ones give the per-layer metrics (see ``child.py``) and the
difference of the median walls is reported as ``trace.overhead_s``.  The
traced run also checks, when the compiled step kernel is importable, that
it agrees with the pure twin on every row the walk visited.

The last line of output is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
route that produced the numbers (step kernel, sampling method, versions).
Results whose step kernels differ are not comparable.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS, check_exact, check_stats, parse_stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
YARDSTICK = os.path.join(HERE, "yardstick")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORK = os.path.join(HERE, "_work")

MIN_REPS = 3
#: children still running this long after the start are killed and the run
#: fails, so that a run ends within three minutes whatever the program does
DEADLINE_S = 150

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("items_per_s", "1/s")]

#: unit of every per-layer metric
LAYER_UNITS = {
    "jack.table_s": "s", "jack.table_sizes": "count",
    "psum.scalar_product_s": "s", "psum.scalar_product_calls": "count",
    "jack.skew_s": "s", "jack.skew_calls": "count",
    "jack.principal_value_s": "s", "specializations.specialize_s": "s",
    "dynamics.rows_built": "count", "dynamics.row_lookups": "count",
    "dynamics.row_cache_hit_ratio": "ratio", "dynamics.transition_row_s": "s",
    "dynamics.row_entries_max": "count", "dynamics.row_entries_total": "count",
    "dynamics.path_statistics_self_s": "s", "dynamics.scaled_moment_s": "s",
    "dynamics.add_sample_s": "s", "dynamics.write_csv_s": "s",
    "dynamics.t0_var_max": "1", "cli.out_bytes": "bytes",
    "asymptotics.walk_limit_data_s": "s", "asymptotics.build_V_s": "s",
    "asymptotics.limit_moment_s": "s", "asymptotics.limit_covariance_s": "s",
    "asymptotics.toeplitz_check_s": "s",
    "operators.apply_I_s": "s", "operators.eigenvalue_of_s": "s",
    "verify.cauchy_s": "s", "verify.ns_s": "s", "verify.stochastic_s": "s",
    "verify.toeplitz_s": "s", "verify.moments_s": "s",
    "trace.overhead_s": "s",
}

#: per-layer metric -> (span name, field), where field indexes the child's
#: per-span totals [outermost time, outermost calls, calls, self time]
SPAN_METRICS = {
    "jack.table_s": ("jack.table", 0),
    "jack.table_sizes": ("jack.table", 1),
    "jack.skew_s": ("jack.skew", 0),
    "jack.skew_calls": ("jack.skew", 2),
    "jack.principal_value_s": ("jack.principal_value", 0),
    "specializations.specialize_s": ("specializations.specialize", 0),
    "dynamics.rows_built": ("dynamics.transition_row", 2),
    "dynamics.transition_row_s": ("dynamics.transition_row", 0),
    "dynamics.path_statistics_self_s": ("dynamics.path_statistics", 3),
    "dynamics.scaled_moment_s": ("dynamics.scaled_moment", 0),
    "dynamics.add_sample_s": ("dynamics.add_sample", 0),
    "dynamics.write_csv_s": ("dynamics.write_csv", 0),
    "asymptotics.walk_limit_data_s": ("asymptotics.walk_limit_data", 0),
    "asymptotics.build_V_s": ("asymptotics.build_V", 0),
    "asymptotics.limit_moment_s": ("asymptotics.limit_moment", 0),
    "asymptotics.limit_covariance_s": ("asymptotics.limit_covariance", 0),
    "asymptotics.toeplitz_check_s": ("asymptotics.toeplitz_check", 0),
    "operators.apply_I_s": ("operators.apply_I", 0),
    "operators.eigenvalue_of_s": ("operators.eigenvalue_of", 0),
    "verify.cauchy_s": ("verify.cauchy", 0),
    "verify.ns_s": ("verify.ns", 0),
    "verify.stochastic_s": ("verify.stochastic", 0),
    "verify.toeplitz_s": ("verify.toeplitz", 0),
    "verify.moments_s": ("verify.moments", 0),
}


class Invoked:
    """One finished CLI process: timing, usage, outputs and problems."""

    def __init__(self, call, spawned, exited, usage, code):
        self.call = call
        self.spawned = spawned
        self.exited = exited
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_kb = usage.ru_maxrss
        self.code = code
        self.side = {}
        self.outputs = {}
        self.problems = []


def _wait(proc, timeout):
    """Reap proc with its resource usage, killing it after timeout s."""
    def kill(signum, frame):
        proc.kill()
    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def _child_env(path):
    """The environment of a CLI process that imports jackwalk from path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (path, env.get("PYTHONPATH")) if p)
    return env


def _invoke(call, mode, path, directory, i, deadline):
    """Run one CLI invocation through child.py, with jackwalk imported from
    path, in directory; return it as an Invoked with its side file read."""
    side = os.path.join(directory, "side-%d.json" % i)
    with open(os.path.join(directory, "log-%d.txt" % i), "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, side, mode] + list(call.argv),
            cwd=directory, env=_child_env(path), stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT)
        usage = _wait(proc, deadline - spawned)
        exited = time.monotonic()
    inv = Invoked(call, spawned, exited, usage, proc.returncode)
    try:
        with open(side) as handle:
            inv.side = json.load(handle)
    except (OSError, ValueError):
        inv.problems.append("no side file")
    module = inv.side.get("module", "")
    if not module.startswith(os.path.join(path, "")):
        inv.problems.append("imported jackwalk.cli from %r" % module)
    if inv.code != 0:
        with open(os.path.join(directory, "log-%d.txt" % i), "rb") as log:
            tail = log.read()[-300:].decode(errors="replace").strip()
        inv.problems.append("exit code %d: %s" % (inv.code, tail))
    return inv


def run_rep(workload, seed, directory, traced, deadline, index):
    """Run every invocation of the workload once, each next to the same
    invocation of the yardstick; return the Invoked list, with the
    yardstick's run of each as its ``yardstick``.

    Which of the pair goes first alternates with the invocation and the
    repetition, so that neither side always runs on a warmer machine."""
    theirs = os.path.join(directory, "yardstick")
    os.makedirs(theirs)
    for name, content in workload.files(seed).items():
        for where in (directory, theirs):
            with open(os.path.join(where, name), "w") as handle:
                json.dump(content, handle)
    mode = "trace" if traced else "plain"
    done = []
    for i, call in enumerate(workload.invocations(seed)):
        pair = [(call, mode, SRC, directory, i, deadline),
                (call, "plain", YARDSTICK, theirs, i, deadline)]
        if (index + i) % 2:
            pair.reverse()
        ran = {args[2]: _invoke(*args) for args in pair}
        inv, inv.yardstick = ran[SRC], ran[YARDSTICK]
        if inv.yardstick.problems:
            sys.exit("the yardstick failed on %s: %s"
                     % (" ".join(call.argv), "; ".join(
                         inv.yardstick.problems)))
        done.append(inv)
    for inv in done:
        for out in inv.call.outputs:
            try:
                with open(os.path.join(directory, out), "rb") as handle:
                    inv.outputs[out] = handle.read()
            except OSError:
                inv.problems.append("%s missing" % out)
    return done


def check_rep(rep, first, reference, laws):
    """Attach output problems to each invocation of a repetition."""
    for i, inv in enumerate(rep):
        walk = inv.call.walk
        for out, data in inv.outputs.items():
            if out in inv.call.exact:
                digest = reference.get(inv.call.ref_key(out))
                inv.problems += ["%s %s" % (out, p)
                                 for p in check_exact(data, digest)]
            elif walk is not None:
                inv.problems += ["%s %s" % (out, p) for p in
                                 check_stats(data, walk, laws[walk])]
            if first is not None and first[i].outputs.get(out) != data:
                inv.problems.append("%s differs from the first repetition"
                                    % out)


def _median(values):
    return statistics.median(values) if values else 0.0


def _times(invs):
    """Summed wall, CPU and set-up seconds of some invocations."""
    return (sum(inv.exited - inv.spawned for inv in invs),
            sum(inv.cpu for inv in invs),
            sum(inv.side.get("imported", inv.spawned) - inv.spawned
                for inv in invs))


def end_to_end(rep, seed_s):
    """The end-to-end metrics of one repetition, plus its paths and cases
    (verify cases and prediction rows) per second.

    Each time is the program's over the yardstick's in the same repetition,
    times seed_s, the yardstick's time at the reference speed; ``raw_*``
    and ``yardstick_*`` are the times as the clock read them."""
    raw = _times(rep)
    theirs = _times([inv.yardstick for inv in rep])
    wall, cpu, setup = (mine / yard * ref
                        for mine, yard, ref in zip(raw, theirs, seed_s))
    paths = sum(inv.call.walk.samples for inv in rep if inv.call.walk)
    cases = sum(max(0, data.count(b"\n") - 2) for inv in rep
                if not inv.call.walk for data in inv.outputs.values())
    return {"wall_s": wall,
            "cpu_s": cpu,
            "setup_s": setup,
            "peak_rss_mb": max(inv.rss_kb for inv in rep) / 1024.0,
            "items_per_s": (paths + cases) / wall,
            "paths_per_s": paths / wall,
            "cases_per_s": cases / wall,
            "raw_wall_s": raw[0], "raw_cpu_s": raw[1], "raw_setup_s": raw[2],
            "yardstick_wall_s": theirs[0], "yardstick_cpu_s": theirs[1],
            "yardstick_setup_s": theirs[2]}


def per_layer(rep):
    spans, counts = {}, {}
    in_table = [0.0, 0]
    entries = []
    for inv in rep:
        trace = inv.side.get("trace", {})
        for span, totals in trace.get("spans", {}).items():
            into = spans.setdefault(span, [0.0, 0, 0, 0.0])
            for j, value in enumerate(totals):
                into[j] += value
        for key, value in trace.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
        in_table = [a + b for a, b in
                    zip(in_table, trace.get("table_scalar_product", [0, 0]))]
        entries += trace.get("row_entries", [])
    values = {metric: spans.get(span, [0.0, 0, 0, 0.0])[field]
              for metric, (span, field) in SPAN_METRICS.items()}
    built = values["dynamics.rows_built"]
    lookups = counts.get("dynamics.row_lookups", 0)
    t0_vars = [var for inv in rep
               if inv.call.walk is not None and not inv.problems
               for (t, _), (_, var) in
               parse_stats(inv.outputs[inv.call.outputs[0]]).items()
               if t == 0]
    values.update({
        "psum.scalar_product_s": in_table[0],
        "psum.scalar_product_calls": in_table[1],
        "dynamics.row_lookups": lookups,
        "dynamics.row_cache_hit_ratio":
            1 - built / lookups if lookups else 0.0,
        "dynamics.row_entries_max": max(entries, default=0),
        "dynamics.row_entries_total": sum(entries),
        "dynamics.t0_var_max": max(t0_vars, default=0.0),
        "cli.out_bytes": sum(len(data) for inv in rep
                             for data in inv.outputs.values()),
    })
    return values


def twin_check(reps):
    """Compare the compiled kernel with the pure twin on the rows that the
    theta = 1 walks visited.  Returns (status, number of disagreeing rows)."""
    visited = {(inv.call.walk.n, tuple(lam)) for rep in reps for inv in rep
               if inv.call.walk and inv.call.walk.theta == "1"
               for lam in inv.side.get("trace", {}).get("visited", [])}
    if not visited:
        return "not applicable: no theta = 1 rows built", 0
    try:
        from jackwalk import _stepkernel
    except ImportError:
        return "skipped: compiled kernel not importable", 0
    from jackwalk import _steppure
    bad = sum(1 for n, lam in visited
              if sorted(_stepkernel.bernoulli_row(lam, n, 1, 1))
              != sorted(_steppure.bernoulli_row(lam, n, 1, 1)))
    return "%d rows compared, %d disagree" % (len(visited), bad), bad


def route(reps):
    import numpy

    sides = [inv.side for rep in reps for inv in rep]
    return {"step_kernel": sorted({s.get("kernel") for s in sides} - {None}),
            "JACKWALK_FORCE_PY": os.environ.get("JACKWALK_FORCE_PY"),
            "method": sorted({m for s in sides for m in s.get("methods", [])}),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count()}


def _spread(values):
    if len(values) < 2:
        return "n=%d" % len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return "q1 %.4g, q3 %.4g, n=%d" % (q1, q3, len(values))


def run_workload(name, seed, seconds, trace, reference):
    workload = WORKLOADS[name]
    laws = {walk: walk.exact_laws() for walk in workload.walks}
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (name, seed), dir=WORK)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    plain, traced_reps = [], []
    first = None
    attempted = failed = 0
    try:
        # start another repetition only while it should end less than half
        # a repetition after the measuring time
        last = 0.0
        while (len(plain) + len(traced_reps) < MIN_REPS
               or time.monotonic() - start + last / 2 < seconds):
            traced = trace and len(plain) > len(traced_reps)
            directory = os.path.join(work, "rep-%d"
                                     % (len(plain) + len(traced_reps)))
            began = time.monotonic()
            rep = run_rep(workload, seed, directory, traced, deadline,
                          len(plain) + len(traced_reps))
            last = time.monotonic() - began
            check_rep(rep, first, reference, laws)
            if first is None:
                first = rep
            else:
                shutil.rmtree(directory)
            attempted += len(rep)
            failed += sum(1 for inv in rep if inv.problems)
            for inv in rep:
                for problem in inv.problems:
                    print("FAIL %s: %s" % (" ".join(inv.call.argv[:2]),
                                           problem), file=sys.stderr)
            (traced_reps if traced else plain).append(rep)
            if time.monotonic() > deadline:
                break
    finally:
        shutil.rmtree(work)

    samples = [end_to_end(rep, workload.seed_s) for rep in plain]
    e2e = {m: _median([s[m] for s in samples]) for m in samples[0]}
    info = {"workload": name, "seed": seed, "reps": len(plain),
            "traced_reps": len(traced_reps),
            "route": route(plain + traced_reps)}
    print("workload %s, seed %d, %d untraced repetitions" % (name, seed,
                                                              len(plain)))
    units = dict(END_TO_END, paths_per_s="paths/s", cases_per_s="cases/s",
                 raw_wall_s="s", raw_cpu_s="s", raw_setup_s="s",
                 yardstick_wall_s="s", yardstick_cpu_s="s",
                 yardstick_setup_s="s")
    for metric, unit in units.items():
        print("  %-18s %12.6g %-8s median; %s" % (
            metric, e2e[metric], unit, _spread([s[metric] for s in samples])))
    print("  %-18s %12.6g %-8s %d of %d operations failed"
          % ("fail_frac", failed / attempted, "", failed, attempted))

    if trace:
        layers = [per_layer(rep) for rep in traced_reps]
        values = {m: _median([layer[m] for layer in layers])
                  for m in LAYER_UNITS if m != "trace.overhead_s"}
        values["trace.overhead_s"] = _median(
            [end_to_end(rep, workload.seed_s)["wall_s"]
             for rep in traced_reps]) \
            - e2e["wall_s"]
        metrics = {m: {"value": values[m], "unit": LAYER_UNITS[m]}
                   for m in LAYER_UNITS}
        status, bad = twin_check(traced_reps)
        info["twin_check"] = status
        if status.endswith("disagree"):
            attempted += 1
            failed += 1 if bad else 0
        for m in sorted(metrics):
            print("  %-34s %12.6g %s" % (m, metrics[m]["value"],
                                         metrics[m]["unit"]))
        # the first traced repetition, invocation by invocation
        for inv in traced_reps[0]:
            spans = inv.side.get("trace", {}).get("spans", {})
            top = sorted(spans, key=lambda s: -spans[s][0])[:3]
            print("  %-22s %7.3f s; %s" % (
                " ".join(inv.call.argv[:2]) + " " + inv.call.outputs[0],
                inv.exited - inv.spawned,
                ", ".join("%s %.3f s" % (s, spans[s][0]) for s in top)))
    else:
        info["twin_check"] = "runs with --trace 1"
        metrics = {m: {"value": e2e[m], "unit": unit}
                   for m, unit in END_TO_END}
    print(json.dumps(info, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not os.path.isfile(os.path.join(SRC, "jackwalk", "cli.py")):
        sys.exit("no jackwalk sources under %s" % SRC)
    # both sides read their bytecode from a cache of the harness's own,
    # filled here before timing, whatever caches the trees hold or the
    # environment forbids; and fail early without a program
    os.environ["PYTHONPYCACHEPREFIX"] = os.path.join(WORK, "pycache")
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    for path in (SRC, YARDSTICK):
        warm = subprocess.run([sys.executable, "-c", "import jackwalk.cli"],
                              env=_child_env(path), timeout=60)
        if warm.returncode != 0:
            sys.exit("jackwalk.cli does not import from %s" % path)
    # one core for the harness and the children it waits for in turn
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    with open(REFERENCE) as handle:
        reference = json.load(handle)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), reference)
               for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {"%s/%s" % (name, m): v
                              for name, r in results.items()
                              for m, v in r["metrics"].items()}}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
