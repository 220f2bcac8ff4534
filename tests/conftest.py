"""Fixtures shared by several test modules."""

import pytest

from relattn import autodiff as ad


@pytest.fixture
def two_cores(monkeypatch):
    """``two_cores(on)`` forces ``autodiff._two_cores`` to ``on``, with no size
    threshold, so that every sweep, product or pair of BiLSTM directions of
    two pieces or more splits when ``on``; it returns the list into which
    each later split that ``autodiff._halves`` makes appends ``True``."""
    calls = []
    real_halves = ad._halves

    def noting_halves(fn, pieces, work, least):
        results = real_halves(fn, pieces, work, least)
        if len(results) == 2:
            calls.append(True)
        return results

    monkeypatch.setattr(ad, "_halves", noting_halves)
    monkeypatch.setattr(ad, "CONCURRENT_MIN_ENTRIES", 0)
    monkeypatch.setattr(ad, "CONCURRENT_MIN_PRODUCT", 0)

    def force(on):
        monkeypatch.setattr(ad, "_two_cores", lambda: on)
        calls.clear()
        return calls
    return force
