"""Fixtures shared by several test modules."""

import threading

import pytest

from relattn import autodiff as ad


@pytest.fixture
def two_cores(monkeypatch):
    """``two_cores(on)`` forces ``autodiff._two_cores`` to ``on``, with no size
    threshold, so that every sweep, product or pair of BiLSTM directions of
    two tasks or more splits when ``on``; it returns the list into which
    each later split that ``autodiff.halves`` makes appends ``True``. A
    split is a call whose first and last tasks ran on two threads; only
    those two are wrapped, so the fixture adds little to traced memory."""
    calls = []
    real_halves = ad.halves

    def noting_halves(tasks, work, least=None):
        threads = set()

        def noted(task):
            def run():
                threads.add(threading.get_ident())
                return task()
            return run
        tasks = list(tasks)
        if len(tasks) > 1:
            tasks[0], tasks[-1] = noted(tasks[0]), noted(tasks[-1])
        results = real_halves(tasks, work, least)
        if len(threads) == 2:
            calls.append(True)
        return results

    monkeypatch.setattr(ad, "halves", noting_halves)
    monkeypatch.setattr(ad, "CONCURRENT_MIN_ENTRIES", 0)
    monkeypatch.setattr(ad, "CONCURRENT_MIN_PRODUCT", 0)

    def force(on):
        monkeypatch.setattr(ad, "_two_cores", lambda: on)
        calls.clear()
        return calls
    return force
