"""The names the benchmark harness's tracer patches or reads must exist.

`perfbench/child.py` replaces functions where their callers look them up
and reads a few attributes on every invocation; a rename breaks only
traced benchmark runs, so this pins every such name here.
"""

import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jackwalk import dynamics, jack

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


@pytest.fixture(scope="module")
def child():
    # load by path, without writing bytecode next to the harness
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _resolve(module, attribute):
    owner = importlib.import_module(module)
    for part in attribute.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_span_resolves(child):
    assert child.SPANS
    for module, attribute, _ in child.SPANS:
        assert callable(_resolve(module, attribute)), (module, attribute)


def test_tracer_hooks_resolve():
    assert callable(dynamics._RowCache.cumulative)
    assert callable(jack.JackBasis.ensure_size)
    assert 0 not in jack.JackBasis(Fraction(1))._done
    assert dynamics._stepimpl.__name__.startswith("jackwalk.")
    assert dynamics.PathStats([]).method == "rows"
