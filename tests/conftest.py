import gc
import hashlib
import json
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


def _read(path):
    """A record file's parsed header and the bytes after its newline."""
    head, _, blob = path.read_bytes().partition(b"\n")
    return json.loads(head), blob


def _write(path, header, blob):
    """Write `header` as a JSON line, then `blob`. A header object gets the
    sha256 of `blob`, so that an edited field or value reaches the check
    aimed at it and does not stop at the digest."""
    if isinstance(header, dict):
        header = {**header, "sha256": hashlib.sha256(blob).hexdigest()}
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
