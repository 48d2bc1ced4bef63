"""Helpers shared by the test modules."""
import tracemalloc

import pytest


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
