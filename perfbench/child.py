"""Run one jackwalk CLI invocation on behalf of the benchmark harness.

    python3 child.py SIDE_FILE {plain,trace} CLI_ARGS...

Imports ``jackwalk.cli`` (on the PYTHONPATH the harness sets), notes the
monotonic time at which the import finished, runs ``jackwalk.cli.main`` on
CLI_ARGS and exits with its code.  SIDE_FILE receives a JSON object with
that time, the file ``jackwalk.cli`` came from, the step kernel in use,
the ``PathStats.method`` of the sampled statistics and, in ``trace`` mode,
per-layer span totals.

Tracing patches each traced name where its caller looks it up (for example
``jackwalk.dynamics.transition_row``, which the row cache calls) and
records one span per call, with its parent span, so that self times can be
computed.  Plain mode patches only ``jackwalk.cli.path_statistics``, with a
wrapper that records the sampling method and nothing else.
"""

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

#: (module, attribute, span name) of every traced call
SPANS = [
    ("jackwalk.jack", "scalar_product", "psum.scalar_product"),
    ("jackwalk.dynamics", "skew_jack", "jack.skew"),
    ("jackwalk.dynamics", "principal_value", "jack.principal_value"),
    ("jackwalk.dynamics", "specialize", "specializations.specialize"),
    ("jackwalk.dynamics", "transition_row", "dynamics.transition_row"),
    ("jackwalk.dynamics", "scaled_moment", "dynamics.scaled_moment"),
    ("jackwalk.dynamics", "PathStats.add_sample", "dynamics.add_sample"),
    ("jackwalk.dynamics", "PathStats.write_csv", "dynamics.write_csv"),
    ("jackwalk.cli", "path_statistics", "dynamics.path_statistics"),
    ("jackwalk.cli", "walk_limit_data", "asymptotics.walk_limit_data"),
    ("jackwalk.cli", "build_V", "asymptotics.build_V"),
    ("jackwalk.cli", "limit_moment", "asymptotics.limit_moment"),
    ("jackwalk.cli", "limit_covariance", "asymptotics.limit_covariance"),
    ("jackwalk.verify", "toeplitz_wienerhopf_check",
     "asymptotics.toeplitz_check"),
    ("jackwalk.verify", "apply_I", "operators.apply_I"),
    ("jackwalk.verify", "eigenvalue_of", "operators.eigenvalue_of"),
    ("jackwalk.verify", "cauchy_cases", "verify.cauchy"),
    ("jackwalk.verify", "eigenrelation_cases", "verify.ns"),
    ("jackwalk.verify", "stochasticity_cases", "verify.stochastic"),
    ("jackwalk.verify", "toeplitz_cases", "verify.toeplitz"),
    ("jackwalk.verify", "moment_roundtrip_cases", "verify.moments"),
]


def _patch(module, attribute, wrap):
    """Replace module.attribute (or module.Class.method) by wrap(original)."""
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    setattr(owner, name, wrap(getattr(owner, name)))


class Tracer:
    """Spans [name, start, end, parent index] kept in memory, plus counts
    and the rows the walk visited."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.row_entries = []
        self.visited = []

    def span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return traced

    def count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self, methods):
        for module, attribute, name in SPANS:
            after = None
            if name == "dynamics.transition_row":
                after = self._row_built
            elif name == "dynamics.path_statistics":
                after = lambda args, stats: methods.append(stats.method)
            _patch(module, attribute,
                   lambda fn, name=name, after=after:
                   self.span(name, fn, after))
        _patch("jackwalk.dynamics", "_RowCache.cumulative",
               lambda fn: self.count("dynamics.row_lookups", fn))
        _patch("jackwalk.jack", "JackBasis.ensure_size", self._ensure_size)

    def _row_built(self, args, row):
        self.row_entries.append(len(row.support))
        self.visited.append(list(args[0]))

    def _ensure_size(self, fn):
        """Span only the calls that build a size class."""
        traced = self.span("jack.table", fn)

        def ensure_size(basis, size):
            if size in basis._done:
                return fn(basis, size)
            return traced(basis, size)
        return ensure_size

    def summary(self):
        """Per span name: outermost time and calls, all calls, self time;
        plus scalar products made while building tables."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_name = defaultdict(lambda: [0.0, 0, 0, 0.0])
        in_table = [0.0, 0]
        for i, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            ancestors = set()
            while parent >= 0:
                ancestors.add(spans[parent][0])
                parent = spans[parent][3]
            totals = per_name[name]
            if name not in ancestors:
                totals[0] += duration
                totals[1] += 1
            totals[2] += 1
            totals[3] += duration - child_time[i]
            if name == "psum.scalar_product" and "jack.table" in ancestors:
                in_table[0] += duration
                in_table[1] += 1
        return {"spans": dict(per_name), "counts": dict(self.counts),
                "table_scalar_product": in_table,
                "row_entries": self.row_entries, "visited": self.visited}


def main():
    side_file, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import jackwalk.cli
    imported = time.monotonic()
    from jackwalk import dynamics

    methods = []
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install(methods)
    else:
        def record_method(fn):
            def path_statistics(*args, **kwargs):
                stats = fn(*args, **kwargs)
                methods.append(stats.method)
                return stats
            return path_statistics
        _patch("jackwalk.cli", "path_statistics", record_method)

    code = 1
    try:
        code = jackwalk.cli.main(argv)
    finally:
        info = {"imported": imported, "module": jackwalk.cli.__file__,
                "kernel": dynamics._stepimpl.__name__.rpartition(".")[2],
                "methods": methods}
        if tracer is not None:
            info["trace"] = tracer.summary()
        with open(side_file, "w") as handle:
            json.dump(info, handle)
    sys.exit(code)


if __name__ == "__main__":
    main()
