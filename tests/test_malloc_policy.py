"""Building a Model keeps freed step memory mapped under glibc.

Each training step frees its tape's arrays. With glibc's default policy
that memory goes back to the OS, so the next step faults the same pages in
again; the policy ``model._keep_freed_memory`` sets keeps it mapped.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from relattn import model as model_module
from relattn.config import ModelConfig
from relattn.model import Model

SRC = Path(__file__).resolve().parents[1] / "src"

# A smoke-sized synth-profile training session, as the benchmark's
# train_synth sets it up with seed 3; prints the minor page faults of each
# step after the warm-up.
STEP_FAULTS = """
import itertools, json, resource, sys
import numpy as np
from relattn import autodiff, data, training
from relattn.config import ModelConfig
from relattn.model import Model

warmup, steps = int(sys.argv[1]), int(sys.argv[2])
config = ModelConfig.from_profile("synth", seed=3)
spec = data.SynthSpec(num_relations=5, vocab_size=200, bags_per_relation=20, max_bag_size=5,
                      noise_ratio=0.5, seed=3)
dataset = data.generate_synthetic(spec, config)
model = Model(config, len(dataset.vocab), len(dataset.relations),
              rng=np.random.default_rng(config.seed))
batches = (bags for epoch in itertools.count()
           for bags in data.make_batches(dataset, config.batch_size,
                                         seed=config.seed * 1_000_003 + epoch))
faults = []
for k, bags in zip(range(warmup + steps), batches):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    model.zero_grad()
    tape = autodiff.Tape()
    loss, _ = training.total_loss(tape, bags, model)
    autodiff.backward(tape, loss)
    training.adam_step(model.parameters(), config)
    if k >= warmup:
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's")
def test_training_steps_do_not_fault_their_memory_in_again():
    # the policy is process-wide, so the session runs in a fresh process,
    # whatever allocator state earlier tests left in this one
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", STEP_FAULTS, "5", "12"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout)
    assert len(faults) == 12
    # measured: a median of 0 faults with the policy, 465 without it
    assert sorted(faults)[len(faults) // 2] <= 8, faults


@pytest.fixture
def mallopt_calls(monkeypatch):
    """Records the helper's mallopt calls in place of the C library's."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(model_module.ctypes, "CDLL",
                        lambda name: SimpleNamespace(mallopt=mallopt))
    model_module._keep_freed_memory.cache_clear()
    yield calls
    model_module._keep_freed_memory.cache_clear()


def test_no_call_off_glibc(mallopt_calls, monkeypatch):
    monkeypatch.setattr(platform, "libc_ver", lambda: ("", ""))
    model_module._keep_freed_memory()
    assert mallopt_calls == []


def test_policy_is_set_once_per_process(mallopt_calls, monkeypatch):
    monkeypatch.setattr(platform, "libc_ver", lambda: ("glibc", "2.36"))
    config = ModelConfig(word_dim=3, position_dim=2, max_distance=3, time_steps=5,
                         hidden_size=2, word_attention_hidden=3, word_attention_rows=2,
                         mlp_size=4, sent_attention_hidden=3, sent_attention_rows=2)
    first = Model(config, 10, 3, rng=np.random.default_rng(0))
    assert mallopt_calls == [(model_module.M_MMAP_THRESHOLD, model_module.MMAP_THRESHOLD),
                             (model_module.M_TRIM_THRESHOLD, model_module.TRIM_THRESHOLD),
                             (model_module.M_ARENA_MAX, model_module.ARENA_MAX)]
    Model(config, 10, 3, tensors={name: p.value for name, p in
                                  first.named_parameters().items()})
    assert len(mallopt_calls) == 3
