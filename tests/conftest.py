"""Fixtures shared by several test modules."""

import pytest

from relattn import autodiff as ad


@pytest.fixture
def two_cores(monkeypatch):
    """``two_cores(on)`` forces ``autodiff._two_cores`` to ``on``, with no size
    threshold, so that every sweep or stacked product of two pieces or more
    splits when ``on``; it returns the list into which each later
    ``autodiff._both`` call appends its ``concurrently`` argument."""
    calls = []
    real_both = ad._both

    def noting_both(worker, here, concurrently):
        calls.append(concurrently)
        return real_both(worker, here, concurrently)

    monkeypatch.setattr(ad, "_both", noting_both)
    monkeypatch.setattr(ad, "CONCURRENT_MIN_ENTRIES", 0)
    monkeypatch.setattr(ad, "CONCURRENT_MIN_PRODUCT", 0)

    def force(on):
        monkeypatch.setattr(ad, "_two_cores", lambda: on)
        calls.clear()
        return calls
    return force
