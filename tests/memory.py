"""Byte counts of what a call leaves allocated, by tracemalloc, and the
thread's forward scratch workspace."""

import gc
import tracemalloc

from racdnn import nn

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


def workspace() -> dict:
    """This thread's scratch buffers by slot (``nn._scratch``)."""
    return dict(getattr(nn._workspace, "bufs", {}))


def drop_workspace() -> None:
    """Empty this thread's workspace, as a forward under a graph does."""
    nn._workspace.__dict__.pop("bufs", None)
