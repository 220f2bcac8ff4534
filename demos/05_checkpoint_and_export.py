"""Checkpoint round-trip and attention CSV export.

Trains briefly, saves the versioned checkpoint (text header + named
float32 tensors), reloads it, verifies bit-identical predictions, and
exports heatmap-ready attention CSVs for one bag.
"""

import tempfile
from pathlib import Path

import numpy as np

from relattn.config import ModelConfig
from relattn.data import SynthSpec, generate_synthetic
from relattn.evaluation import export_attention
from relattn.training import (checkpoint_from, load_checkpoint, model_from_checkpoint,
                              save_checkpoint, train)

config = ModelConfig.from_profile("synth", seed=7, epochs=4, batch_size=25)
dataset = generate_synthetic(SynthSpec(bags_per_relation=40, seed=5), config)
print(f"training on {len(dataset.bags)} bags ...")
result = train(dataset, config)

with tempfile.TemporaryDirectory(prefix="relattn_demo_") as tmp:
    workdir = Path(tmp)
    ckpt_path = workdir / "model.ckpt"
    save_checkpoint(checkpoint_from(result.model, dataset.vocab, dataset.relations,
                                    result.rng), ckpt_path)
    print(f"\nsaved {ckpt_path} ({ckpt_path.stat().st_size} bytes)")
    with ckpt_path.open("rb") as fh:
        for _ in range(3):
            print("  " + fh.readline().decode().rstrip())
        print("  ... header continues, then named float32 tensors")

    loaded, vocab = model_from_checkpoint(load_checkpoint(ckpt_path))
    bag = max(dataset.bags, key=lambda b: len(b.instances))
    drift = np.abs(result.model.predict_bag(bag) - loaded.predict_bag(bag)).max()
    print(f"\nreloaded model prediction drift on bag {bag.bag_id}: {drift}")
    assert drift == 0.0

    paths = export_attention(loaded, bag, vocab, workdir / "attention")
    print(f"\nexported attention CSVs for bag {bag.bag_id} "
          f"({len(bag.instances)} instances):")
    for path in paths:
        print(f"  {path}")
    word_csv = paths[0].read_text().splitlines()
    print("\nfirst word-level file, header + first row:")
    print("  " + word_csv[0][:100] + (" ..." if len(word_csv[0]) > 100 else ""))
    print("  " + word_csv[1][:100] + " ...")
    print("each row is one attention distribution; the final row is their sum,")
    print("and the sentence-level file carries the per-instance weighting.")
