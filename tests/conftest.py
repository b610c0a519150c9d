import gc
import tracemalloc
from typing import Any, NamedTuple

import pytest


class Traced(NamedTuple):
    result: Any
    peak: int  # bytes: the most that fn's allocations held at once
    held: int  # bytes: what they still hold when fn returns


def _traced_peak(fn) -> Traced:
    """Run fn() under tracemalloc and count only the blocks allocated while
    it runs. numpy reports its array buffers to tracemalloc, so these are
    exact byte counts of Python objects and arrays, independent of the C
    allocator and of its settings."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return Traced(result, peak - base, held - base)


@pytest.fixture
def traced_peak():
    """`traced_peak(fn)` -> Traced(result, peak, held): the traced bytes of
    one call, for the memory tests."""
    return _traced_peak
