"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """peak(fn) -> (bytes, fn()): the tracemalloc peak that a call reaches
    above what was allocated when it started, numpy's array buffers
    included."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()

    def peak(fn):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return tracemalloc.get_traced_memory()[1] - base, out

    yield peak
    if started:
        tracemalloc.stop()
