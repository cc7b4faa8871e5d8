"""The traced peak memory and the page faults of one call, for the
allocation tests."""

import resource
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


def minor_faults(fn, *args):
    """``(fn(*args), faults)``: the call's result and the minor page faults
    (``ru_minflt``) this process took while it ran, each a page mapped in."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    result = fn(*args)
    return result, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
