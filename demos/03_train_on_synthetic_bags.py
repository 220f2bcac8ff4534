"""Train on noisy synthetic bags and watch instance selection emerge.

The synthetic harness plants a signature trigram between the entities of
every relation's valid sentences; noise sentences are pattern-free filler.
After a short training run the sentence-level attention should put its
weight on the pattern-bearing instances.
"""

import numpy as np

from relattn.config import ModelConfig
from relattn.data import SynthSpec, contains_pattern, generate_synthetic, relation_patterns
from relattn.evaluation import accuracy, hard_predictions
from relattn.training import train

config = ModelConfig.from_profile("synth", seed=3, epochs=8, batch_size=25)
train_spec = SynthSpec(num_relations=5, vocab_size=200, bags_per_relation=80,
                       max_bag_size=5, noise_ratio=0.5, seed=11)
test_spec = SynthSpec(num_relations=5, vocab_size=200, bags_per_relation=20,
                      max_bag_size=5, noise_ratio=0.5, seed=23)

train_ds = generate_synthetic(train_spec, config)
test_ds = generate_synthetic(test_spec, config)
patterns = relation_patterns(5, 200)
print(f"{len(train_ds.bags)} train bags / {len(test_ds.bags)} test bags, "
      f"vocab {len(train_ds.vocab)}")
print("relation signatures:", {f"rel{k}": " ".join(p) for k, p in enumerate(patterns)})

print(f"\ntraining {config.epochs} epochs ...")
result = train(train_ds, config, log_every=2)
model = result.model

acc = accuracy(hard_predictions(test_ds, model), test_ds)
print(f"\nbag-level test accuracy: {acc:.3f}")

print("\nsentence-level attention on a mixed bag (valid + noise instances):")
for bag in test_ds.bags:
    if len(bag.instances) < 3:
        continue
    flags = [contains_pattern(test_ds.vocab.decode(inst.token_ids),
                              patterns[bag.relation_id]) for inst in bag.instances]
    if any(flags) and not all(flags):
        forward = model.forward_bag(None, bag)
        weights = forward.averaged.value.ravel()
        probs = forward.probabilities.value.ravel()
        print(f"  bag {bag.bag_id} (gold rel{bag.relation_id}, "
              f"predicted rel{int(np.argmax(probs))}):")
        for inst, flag, weight in zip(bag.instances, flags, weights):
            kind = "valid" if flag else "noise"
            text = " ".join(test_ds.vocab.decode(inst.token_ids))
            print(f"    weight {weight:.3f}  [{kind}]  {text}")
        break

wins = comparable = 0
for bag in test_ds.bags:
    if len(bag.instances) < 2:
        continue
    flags = np.array([contains_pattern(test_ds.vocab.decode(inst.token_ids),
                                       patterns[bag.relation_id])
                      for inst in bag.instances])
    if flags.all() or not flags.any():
        continue
    weights = model.forward_bag(None, bag).averaged.value.ravel()
    comparable += 1
    wins += weights[flags].mean() > weights[~flags].mean()
print(f"\nvalid instances outweigh noise in {wins}/{comparable} mixed test bags")
