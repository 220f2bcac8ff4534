"""The parameter table: every tensor's draw order, init rule and use.

The first test redraws each tensor by the rule the table documents, in the
documented order, from a generator of its own, so reordering an entry or
changing its rule changes the bits. The second asks every entry for a
gradient from the training loss beyond its L2 share, so an entry that no
layer reads fails. The last two pin the store: every tensor is a view into
one buffer, with the decayed ones first, and L2 over that leading slice
matches a per-tensor float64 sum.
"""

import numpy as np
import pytest

from relattn import autodiff as ad
from relattn import gradcheck
from relattn.autodiff import Tape, backward
from relattn.config import ModelConfig
from relattn.model import DECAYED_RULES, Model, expected_shapes
from relattn.training import total_loss

CLASSES = 3
CFG = ModelConfig(word_dim=4, position_dim=6, max_distance=3, time_steps=5, hidden_size=3,
                  word_attention_hidden=5, word_attention_rows=2, mlp_size=7,
                  sent_attention_hidden=4, sent_attention_rows=3)
VOCAB = 9


def documented_draws(cfg, vocab_size, rng, pretrained_rows):
    """Name, value and whether L2 decays it, in draw order: embedding rows
    from normal(0, 0.05), LSTM weights from uniform(-0.1, 0.1), the other
    weights Glorot-uniform, biases zero but for the LSTM forget slice at 1."""
    u, d = cfg.hidden_size, cfg.word_dim + cfg.position_dim
    mlp, r = cfg.mlp_size, cfg.word_attention_rows

    def normal(*shape):
        return rng.normal(0.0, 0.05, size=shape)

    def lstm(*shape):
        return rng.uniform(-0.1, 0.1, size=shape)

    def glorot_uniform(rows, cols):
        limit = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-limit, limit, size=(rows, cols))

    forget_open = np.zeros((4 * u, 1))
    forget_open[u:2 * u] = 1.0
    word = normal(vocab_size, cfg.word_dim)
    for row, vec in pretrained_rows.items():
        word[row] = vec
    draws = [("word_emb", word, False),
             ("head_pos_emb", normal(2 * cfg.max_distance + 2, cfg.position_dim // 2), False),
             ("tail_pos_emb", normal(2 * cfg.max_distance + 2, cfg.position_dim // 2), False)]
    for direction in ("fwd", "bwd"):
        draws += [(f"lstm_{direction}_w_in", lstm(4 * u, d), True),
                  (f"lstm_{direction}_w_rec", lstm(4 * u, u), True),
                  (f"lstm_{direction}_bias", forget_open, False)]
    draws += [("word_attn_hidden", glorot_uniform(cfg.word_attention_hidden, 2 * u), True),
              ("word_attn_rows", glorot_uniform(r, cfg.word_attention_hidden), True),
              ("word_mlp_weight", glorot_uniform(mlp, r * 2 * u), True),
              ("word_mlp_bias", np.zeros((mlp, 1)), False),
              ("sent_attn_hidden", glorot_uniform(cfg.sent_attention_hidden, mlp), True),
              ("sent_attn_rows", glorot_uniform(cfg.sent_attention_rows,
                                                cfg.sent_attention_hidden), True),
              ("class_weight", glorot_uniform(CLASSES, mlp), True),
              ("class_bias", np.zeros((CLASSES, 1)), False)]
    return draws


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("with_pretrained", [False, True])
def test_fresh_tensors_follow_the_documented_rules_bit_for_bit(precision, with_pretrained):
    cfg = CFG.replace(precision=precision)
    vectors = np.random.default_rng(1).normal(size=(2, cfg.word_dim))
    pretrained = {"known": vectors[0], "also": vectors[1], "absent": vectors[0]}
    token_ids = {"known": 2, "also": 7}
    model = Model(cfg, VOCAB, CLASSES, rng=np.random.default_rng(5),
                  pretrained=pretrained if with_pretrained else None, token_ids=token_ids)
    rows = {2: vectors[0], 7: vectors[1]} if with_pretrained else {}
    draws = documented_draws(cfg, VOCAB, np.random.default_rng(5), rows)

    params = model.named_parameters()
    assert list(params) == [name for name, _, _ in draws] == list(expected_shapes(
        cfg, VOCAB, CLASSES))
    for name, want, _ in draws:
        got = params[name].value
        assert got.dtype == np.dtype(precision), name
        np.testing.assert_array_equal(got, want.astype(precision), err_msg=name)
    table = expected_shapes(cfg, VOCAB, CLASSES)
    assert [name for name, (_, rule) in table.items() if rule in DECAYED_RULES] == [
        name for name, _, l2 in draws if l2]


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_models_do_not_alias_the_callers_arrays(precision):
    # Parameter keeps the array it is given, so a model must give it its own:
    # tensors of the model's dtype and pretrained vectors are not shared
    cfg = CFG.replace(precision=precision)
    vector = np.random.default_rng(1).normal(size=cfg.word_dim).astype(precision)
    fresh = Model(cfg, VOCAB, CLASSES, rng=np.random.default_rng(5),
                  pretrained={"known": vector}, token_ids={"known": 2})
    np.testing.assert_array_equal(fresh.embeddings.word.value[2], vector)
    assert not np.shares_memory(fresh.embeddings.word.value, vector)
    tensors = {name: p.value for name, p in fresh.named_parameters().items()}
    loaded = Model(cfg, VOCAB, CLASSES, tensors=tensors)
    for name, p in loaded.named_parameters().items():
        np.testing.assert_array_equal(p.value, tensors[name], err_msg=name)
        assert not np.shares_memory(p.value, tensors[name]), name


def test_every_entry_gets_a_gradient_beyond_its_l2_share():
    model, bags = gradcheck.tiny_model_and_batch()
    cfg = model.config
    assert cfg.penalty_coef > 0 and cfg.l2_coef > 0
    tape = Tape()
    loss, _ = total_loss(tape, bags, model)
    backward(tape, loss)
    params = model.named_parameters()
    for name, (_, rule) in expected_shapes(cfg, model.vocab_size, model.num_classes).items():
        p = params[name]
        l2_share = (2.0 * cfg.l2_coef * p.value if rule in DECAYED_RULES
                    else np.zeros_like(p.value))
        assert not np.allclose(p.grad, l2_share, rtol=1e-9, atol=0.0), name


def _span(a):
    """First and one-past-last byte address of a contiguous array."""
    start = a.__array_interface__["data"][0]
    return start, start + a.nbytes


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_views_tile_one_store_with_the_decayed_tensors_first(precision):
    cfg = CFG.replace(precision=precision)
    model = Model(cfg, VOCAB, CLASSES, rng=np.random.default_rng(5))
    (store,) = model.parameters()
    table = expected_shapes(cfg, VOCAB, CLASSES)
    params = model.named_parameters()
    assert list(params) == list(table)
    assert store.value.shape == (sum(v.value.size for v in params.values()), 1)
    assert store.value.dtype == np.dtype(precision)
    decayed = {name for name, (_, rule) in table.items() if rule in DECAYED_RULES}
    for buffer in ("value", "grad"):
        spans = {name: _span(getattr(p, buffer)) for name, p in params.items()}
        starts, ends = zip(*sorted(spans.values()))
        whole = _span(getattr(store, buffer))
        # the views tile the store's buffer, with no gap and no overlap
        assert starts == (whole[0],) + ends[:-1] and ends[-1] == whole[1]
        in_order = sorted(spans, key=spans.get)
        assert set(in_order[:len(decayed)]) == decayed, buffer
        assert _span(getattr(model.decayed, buffer)) == (whole[0],
                                                         spans[in_order[len(decayed) - 1]][1])
    for name, p in params.items():
        assert np.shares_memory(p.value, store.value) and np.shares_memory(p.grad, store.grad)
        assert not hasattr(p, "m") and not hasattr(p, "s"), name


def test_l2_over_the_decayed_slice():
    # float32 at a size where the slice spans several blocks of squared_norm
    cfg = CFG.replace(precision="float32", hidden_size=40, word_attention_hidden=60,
                      mlp_size=800, l2_coef=1e-3)
    model = Model(cfg, VOCAB, CLASSES, rng=np.random.default_rng(6))
    table = expected_shapes(cfg, VOCAB, CLASSES)
    params = model.named_parameters()
    decayed = [name for name, (_, rule) in table.items() if rule in DECAYED_RULES]
    assert model.decayed.value.size > 2 * ad.ROW_BLOCK
    tape = Tape()
    l2 = ad.mul_const(tape, ad.sum_squares(tape, model.decayed), cfg.l2_coef)
    reference = cfg.l2_coef * sum((params[name].value.astype(np.float64) ** 2).sum()
                                  for name in decayed)
    assert l2.value.item() == pytest.approx(reference, rel=1e-6)
    backward(tape, l2)
    for name, p in params.items():
        want = 2.0 * cfg.l2_coef * p.value if name in decayed else np.zeros_like(p.value)
        np.testing.assert_array_equal(p.grad, want, err_msg=name)
