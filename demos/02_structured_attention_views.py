"""What the matrix-valued word attention buys over a single vector.

Encodes a toy sentence beside a longer one, prints each of its attention
rows as a distribution over tokens, and shows the orthogonality penalty
pushing the rows to focus on different positions.
"""

import numpy as np

from relattn import autodiff as ad
from relattn import encoder as enc
from relattn import word_attention as wa
from relattn.autodiff import Parameter, Tape, backward
from relattn.config import ModelConfig
from relattn.data import BLANK_TOKEN, Vocab, encode_instance
from relattn.model import Model

CLASSES = 2   # the classifier head is built but never scored here
cfg = ModelConfig(word_dim=12, position_dim=6, max_distance=8, time_steps=8,
                  hidden_size=8, word_attention_hidden=10, word_attention_rows=3,
                  mlp_size=16, sent_attention_hidden=8, sent_attention_rows=2,
                  precision="float64")

sentence = "acme_corp hired jane_doe as chief engineer".split()
vocab = Vocab.build(sentence)
instance = encode_instance(sentence, head_index=0, tail_index=2, vocab=vocab,
                           time_steps=cfg.time_steps)
# an instance holds only its real tokens; a longer sentence of the same bag
# keeps the batch running past the first one's end, so word attention pads
# the first one there and masks those positions out
other = encode_instance("jane_doe joined acme_corp as chief engineer last year".split(),
                        head_index=2, tail_index=0, vocab=vocab, time_steps=cfg.time_steps)

model = Model(cfg, len(vocab), CLASSES, rng=np.random.default_rng(4))
tables, lstm, word = model.embeddings, model.lstm, model.word_attn

batch = [instance, other]
plan = enc.BatchPlan.of([inst.true_length for inst in batch])   # the packed layout
embedded = enc.embed_batch(None, batch, plan, tables, cfg)       # real tokens only
hidden = enc.bilstm_encode_batch(None, embedded, plan, lstm)     # [n x 2u x longest length]
attn = wa.word_attention_matrix(None, hidden, word, valid_cols=plan.valid)
first = attn.value[0]   # the first sentence's rows

print(f"instance ids: {instance.token_ids.tolist()}, one per token, no padding")
tokens = vocab.decode(instance.token_ids) + [BLANK_TOKEN] * (first.shape[1] - len(sentence))
print("tokens: ", "  ".join(f"{t:>10.10}" for t in tokens))
for r in range(cfg.word_attention_rows):
    row = "  ".join(f"{x:10.3f}" for x in first[r])
    print(f"row {r}:  {row}")
print(f"summed:  " + "  ".join(f"{x:10.3f}" for x in first.sum(axis=0)))
print(f"\npadded positions carry {first[:, instance.true_length:].sum():.2e} "
      f"total attention mass (masked out)")

weighted = wa.weighted_sentence_matrix(None, attn, hidden)
rep = wa.flatten_project(None, weighted, word)
print(f"each row weights the encoder states -> {weighted.shape[1:]} matrix per sentence, "
      f"flattened and projected to a length-{rep.shape[0]} instance vector")

print("\nthe penalty ||A A^T - I||_F^2 rewards rows that are distinct and sharp;")
print("minimizing it alone from a random matrix:")
free = Parameter("attn", np.random.default_rng(5).normal(0.0, 0.5, (3, 8)))
for step in range(301):
    free.zero_grad()
    tape = Tape()
    loss = ad.frobenius_penalty(tape, free)
    if step % 75 == 0:
        print(f"  step {step:3d}: penalty = {loss.value.item():.6f}")
    backward(tape, loss)
    free.value -= 0.02 * free.grad
gram = free.value @ free.value.T
print("  final row Gram matrix (identity = orthonormal rows):")
print(np.array2string(gram, precision=4, suppress_small=True))
