"""tracemalloc peaks for the memory budget tests."""

import tracemalloc


def traced_peak(build):
    """``(result, peak bytes)`` of one call under tracemalloc."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
