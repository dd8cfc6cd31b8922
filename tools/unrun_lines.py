"""List the lines of ``src/jackwalk`` that the test suite never runs.

Usage (from anywhere; extra arguments go to pytest)::

    python tools/unrun_lines.py [pytest args ...]

Runs the tier-1 suite (``tests/``) in this process under a ``sys.settrace``
line collector, then prints, per module and function, the executable lines
that no test reached, and a total.  The executable lines of a module are
the line numbers its compiled code objects carry (``co_lines``), so
comments, blank lines and function docstrings never count.  Only the standard
library and pytest are used.  Code that the suite runs in a subprocess
(the CLI import probes) is not seen.  The exit code is pytest's.
"""

import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "jackwalk")


def _code_lines(code, owner, out):
    """Map each line of `code` and of the code nested in it to the
    qualified name of the innermost code object that carries it."""
    name = owner if code.co_name == "<module>" else \
        getattr(code, "co_qualname", code.co_name)
    for _, _, line in code.co_lines():
        if line:    # None, or 0 for a module's entry
            out[line] = name
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            _code_lines(const, owner, out)
    return out


def executable_lines(path):
    """{line: function} for every line of `path` that carries bytecode."""
    with open(path) as handle:
        code = compile(handle.read(), path, "exec")
    return _code_lines(code, "<module>", {})


def _ranges(lines):
    """'3-5, 9' for [3, 4, 5, 9]."""
    spans = []
    for line in lines:
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b)
                     for a, b in spans)


def main(argv):
    if any(name == "jackwalk" or name.startswith("jackwalk.")
           for name in sys.modules):
        sys.exit("jackwalk was imported before the collector started")
    sys.path.insert(0, SRC)
    import pytest

    hit = {}        # real path -> set of lines run
    local_for = {}  # co_filename -> line tracer, or None if not ours

    def line_tracer(lines):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        local = local_for.get(name, False)
        if local is False:
            real = os.path.realpath(name)
            local = local_for[name] = None \
                if os.path.dirname(real) != PACKAGE \
                else line_tracer(hit.setdefault(real, set()))
        return local

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", os.path.join(ROOT, "tests")] + argv)
    finally:
        sys.settrace(None)

    total = unrun = 0
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, fname)
        lines_of = executable_lines(path)
        missed = sorted(set(lines_of) - hit.get(path, set()))
        total += len(lines_of)
        unrun += len(missed)
        by_function = {}
        for line in missed:
            by_function.setdefault(lines_of[line], []).append(line)
        for function, got in sorted(by_function.items(),
                                    key=lambda item: item[1][0]):
            print("%s %s: %d (%s)" % (os.path.join("src", "jackwalk", fname),
                                      function, len(got), _ranges(got)))
    print("unrun: %d of %d executable lines in src/jackwalk" % (unrun, total))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
