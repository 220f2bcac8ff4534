"""Rebuild the benchmark's shipped assets: the eval checkpoint and the gate references.

    python3 bench/make_assets.py

Trains criterion 6's setup (synth profile, seed 3, SynthSpec(5, 200, 400, 5,
0.5, seed=11)) for ``EPOCHS`` epochs into ``assets/synth_model.ckpt``, then
records every workload's correctness-gate values in
``assets/reference.json``. The references pin the package's forward pass, so
regenerate them only from a commit whose forward pass is known to be right,
never to make a failing gate pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from relattn import data, training  # noqa: E402

import workloads as wl  # noqa: E402

EPOCHS = 1


def main() -> int:
    config = wl.synth_config(wl.CRITERION6_MODEL_SEED).replace(epochs=EPOCHS)
    dataset = data.generate_synthetic(
        wl.synth_train_spec(wl.CRITERION6_TRAIN_SEED, wl.SYNTH_TRAIN_BAGS_PER_RELATION), config)
    result = training.train(dataset, config, log_every=1)
    wl.ASSETS.mkdir(parents=True, exist_ok=True)
    ckpt = training.checkpoint_from(result.model, dataset.vocab, dataset.relations, result.rng)
    training.save_checkpoint(ckpt, wl.CHECKPOINT)

    references = {name: gate() for name, gate in wl.GATES.items()}
    (wl.ASSETS / "reference.json").write_text(json.dumps(references, indent=1) + "\n",
                                              encoding="utf-8")
    print(f"wrote {wl.CHECKPOINT} and {wl.ASSETS / 'reference.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
