"""Helpers shared by the test modules."""
import importlib
import sys
import tracemalloc
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced_peak(fn):
    """Call ``fn()`` under tracemalloc and return ``(result, peak)``.

    ``peak`` is the largest traced allocation total during the call, in
    bytes, above the total when tracing started.
    """
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def traced_peak():
    """The helper ``traced_peak(fn) -> (result, peak bytes)``."""
    return _traced_peak


def _import_perfbench(name):
    """Import ``perfbench/<name>.py`` without writing bytecode there."""
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True        # leave perfbench/ untouched
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))


@pytest.fixture
def import_perfbench():
    """The helper ``import_perfbench(name) -> module`` for perfbench files."""
    return _import_perfbench
