"""The traced peak memory of one call, for the allocation tests."""

import tracemalloc


def traced_peak(fn, *args):
    """``(fn(*args), peak)``: the call's result and the peak bytes that
    ``tracemalloc`` traced while it ran.  Tracing stops even if it raises."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
