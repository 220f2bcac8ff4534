"""A fixed reference kernel that reads the host's current speed.

The shared host this benchmark was written on slows the core it runs on by
up to 2x, in spells that last from seconds to minutes, and the slow-down is
not steal time: the process's own CPU time stretches with the wall time. No
statistic taken over one run's steps removes a spell that covers the whole
run. So every timed step and every timed set-up is paired with one call of
this kernel just before it, and the gated times are the median ratio of the
two, scaled by ``REF_MS``.

The kernel is shaped like the model's per-bag work: ten bags of 1-5
instances, one Python loop per instance and per time step of a small
LSTM-style recurrence, and attention pooling, all in float32 numpy. A plain
loop of small matmuls tracked the slow spells less closely. The kernel uses
numpy alone and nothing from the package, so no change to the package can
move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's time on the unloaded host (2-vCPU Xeon, Python 3.11, numpy
# 2.4.6, one OpenBLAS thread), near its 5th percentile: it turns the median
# ratio back into milliseconds at that speed. It is a fixed unit, never
# re-measured, so parent and change are scaled alike.
REF_MS = 6.0

_HIDDEN = 24
_EMBED = 30
_STEPS = 12
_VOCAB = 200
_BAG_SIZES = (1, 2, 3, 4, 5) * 2


class ReferenceKernel:
    """Calling it runs the fixed kernel once and returns the seconds it took."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._wx = (rng.standard_normal((_EMBED, 4 * _HIDDEN)) * 0.1).astype(np.float32)
        self._wh = (rng.standard_normal((_HIDDEN, 4 * _HIDDEN)) * 0.1).astype(np.float32)
        self._emb = rng.standard_normal((_VOCAB, _EMBED)).astype(np.float32)
        self._bags = [[rng.integers(0, _VOCAB, _STEPS) for _ in range(size)]
                      for size in _BAG_SIZES]
        self()   # warm-up

    def _run(self) -> float:
        h_dim, total = _HIDDEN, 0.0
        for bag in self._bags:
            pooled = []
            for tokens in bag:
                x = self._emb[tokens]
                h = np.zeros(h_dim, np.float32)
                c = np.zeros(h_dim, np.float32)
                states = []
                for t in range(_STEPS):
                    g = x[t] @ self._wx + h @ self._wh
                    i, f, o, u = g[:h_dim], g[h_dim:2 * h_dim], g[2 * h_dim:3 * h_dim], g[3 * h_dim:]
                    c = _sigmoid(f) * c + _sigmoid(i) * np.tanh(u)
                    h = _sigmoid(o) * np.tanh(c)
                    states.append(h)
                hs = np.stack(states)
                weights = np.exp(hs @ hs[-1])
                pooled.append((weights / weights.sum()) @ hs)
            total += float(np.stack(pooled).sum())
        return total

    def __call__(self) -> float:
        start = perf_counter()
        self._run()
        return perf_counter() - start


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1 / (1 + np.exp(-x))
