"""Byte counts of what a call leaves allocated, by tracemalloc."""

import gc
import tracemalloc

# room for the Python objects an op adds to the tape: its output tensor,
# closure, cells and node
SLACK = 8 * 1024


def traced_bytes(fn):
    """(fn(), bytes the call left allocated, peak bytes allocated during it)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
        return result, current - before, peak - before
    finally:
        tracemalloc.stop()
