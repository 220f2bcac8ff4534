"""Structured word-level attention: oracles, penalty law, gradient checks."""

import numpy as np
import pytest

from relattn import autodiff as ad
from relattn import encoder as enc
from relattn import training
from relattn import word_attention as wa
from relattn.autodiff import Node, Parameter, Tape, backward, finite_diff_check
from relattn.config import ModelConfig
from relattn.data import Instance
from relattn.model import Model


def params_for(rows, attn_hidden, two_u, mlp, seed=0):
    rng = np.random.default_rng(seed)
    return wa.WordAttentionParams(
        attn_hidden=Parameter("ah", rng.uniform(-0.7, 0.7, (attn_hidden, two_u))),
        attn_rows=Parameter("ar", rng.uniform(-0.7, 0.7, (rows, attn_hidden))),
        mlp_weight=Parameter("mw", rng.uniform(-0.7, 0.7, (mlp, rows * two_u))),
        mlp_bias=Parameter("mb", rng.uniform(-0.3, 0.3, (mlp, 1))),
    )


class TestAttentionMatrix:
    def test_zero_row_weights_give_uniform(self):
        p = params_for(3, 4, 2, 5)
        p.attn_rows.value[...] = 0.0
        hidden = Node(np.random.default_rng(1).normal(size=(2, 7)))
        attn = wa.word_attention_matrix(None, hidden, p).value
        np.testing.assert_allclose(attn, np.full((3, 7), 1 / 7), atol=1e-12)

    def test_zero_row_weights_masked_give_uniform_over_valid(self):
        p = params_for(3, 4, 2, 5)
        p.attn_rows.value[...] = 0.0
        hidden = Node(np.random.default_rng(1).normal(size=(2, 7)))
        valid = np.arange(7) < 4
        attn = wa.word_attention_matrix(None, hidden, p, valid_cols=valid).value
        np.testing.assert_allclose(attn[:, :4], np.full((3, 4), 0.25), atol=1e-12)
        assert attn[:, 4:].max() < 1e-6

    def test_published_scale_shapes(self):
        # the large-corpus profile: 9 rows over 70 steps, each row a distribution
        cfg = ModelConfig.from_profile("nyt")
        rng = np.random.default_rng(2)
        p = Model(cfg.replace(precision="float64"), 2, 53, rng=rng).word_attn
        hidden = Node(rng.normal(size=(600, 70)))
        attn = wa.word_attention_matrix(None, hidden, p).value
        assert attn.shape == (9, 70)
        np.testing.assert_allclose(attn.sum(axis=1), np.ones(9), atol=1e-6)

    def test_hand_computed_tiny_case(self):
        # one attention row over two steps; logits engineered to differ by ln 3
        p = params_for(1, 1, 1, 2)
        p.attn_hidden.value[...] = [[1.0]]
        p.attn_rows.value[...] = [[1.0]]
        hidden = Node(np.array([[np.arctanh(0.5), np.arctanh(0.5 - np.log(3.0))]]))
        attn = wa.word_attention_matrix(None, hidden, p).value
        np.testing.assert_allclose(attn, [[0.75, 0.25]], atol=1e-12)

    def test_matches_plain_numpy(self):
        p = params_for(2, 3, 4, 5, seed=3)
        rng = np.random.default_rng(4)
        hidden = Node(rng.normal(size=(4, 6)))
        got = wa.word_attention_matrix(None, hidden, p).value
        logits = p.attn_rows.value @ np.tanh(p.attn_hidden.value @ hidden.value)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        np.testing.assert_allclose(got, e / e.sum(axis=1, keepdims=True), atol=1e-12)


class TestWeightedMatrix:
    def test_one_hot_row_selects_column(self):
        hidden = Node(np.random.default_rng(5).normal(size=(4, 3)))
        attn = Node(np.array([[0.0, 1.0, 0.0]]))
        out = wa.weighted_sentence_matrix(None, attn, hidden).value
        np.testing.assert_array_equal(out[0], hidden.value[:, 1])

    def test_uniform_row_takes_column_mean(self):
        hidden = Node(np.random.default_rng(6).normal(size=(4, 3)))
        attn = Node(np.full((1, 3), 1 / 3))
        out = wa.weighted_sentence_matrix(None, attn, hidden).value
        np.testing.assert_allclose(out[0], hidden.value.mean(axis=1), atol=1e-12)

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(7)
        attn = Node(rng.uniform(size=(2, 3)))
        hidden = Node(rng.normal(size=(4, 3)))
        out = wa.weighted_sentence_matrix(None, attn, hidden).value
        np.testing.assert_allclose(out, attn.value @ hidden.value.T, atol=1e-12)


class TestFlattenProject:
    def test_zero_mlp_gives_zero_vector(self):
        p = params_for(2, 3, 4, 5)
        p.mlp_weight.value[...] = 0.0
        p.mlp_bias.value[...] = 0.0
        out = wa.flatten_project(None, Node(np.ones((2, 4))), p)
        np.testing.assert_array_equal(out.value, np.zeros((5, 1)))

    def test_published_scale_shapes(self):
        rng = np.random.default_rng(8)
        p = params_for(9, 4, 600, 1000, seed=8)
        weighted = Node(rng.normal(size=(9, 600)).astype(np.float64))
        assert p.mlp_weight.value.shape == (1000, 5400)
        out = wa.flatten_project(None, weighted, p)
        assert out.shape == (1000, 1)

    def test_hand_oracle_small(self):
        p = params_for(2, 1, 2, 3)
        p.mlp_weight.value[...] = np.arange(12, dtype=float).reshape(3, 4)
        p.mlp_bias.value[...] = [[-40.0], [1.0], [0.0]]
        weighted = Node(np.array([[1.0, 2.0], [3.0, 4.0]]))   # flat = [1, 2, 3, 4]
        out = wa.flatten_project(None, weighted, p).value
        expected = np.maximum(p.mlp_weight.value @ np.array([[1.], [2.], [3.], [4.]])
                              + p.mlp_bias.value, 0.0)
        np.testing.assert_array_equal(out, expected)
        assert out[0, 0] == 0.0   # the -40 bias drives this unit negative

    def test_row_major_flattening(self):
        p = params_for(2, 1, 2, 4)
        p.mlp_bias.value[...] = 0.0
        p.mlp_weight.value[...] = np.eye(4)
        weighted = Node(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = wa.flatten_project(None, weighted, p).value
        np.testing.assert_array_equal(out.ravel(), [1.0, 2.0, 3.0, 4.0])

    def test_depends_on_every_entry(self):
        rng = np.random.default_rng(9)
        p = params_for(2, 3, 3, 4, seed=9)
        p.mlp_weight.value[...] = rng.permutation(np.linspace(0.5, 2.0, 24)).reshape(4, 6)
        base = Node(rng.normal(size=(2, 3)))
        pre = p.mlp_weight.value @ base.value.reshape(6, 1) + p.mlp_bias.value
        for i in range(2):
            for j in range(3):
                bumped = base.value.copy()
                bumped[i, j] += 0.37
                pre2 = p.mlp_weight.value @ bumped.reshape(6, 1) + p.mlp_bias.value
                assert np.abs(pre2 - pre).max() > 1e-3


class TestPenalty:
    def test_one_hot_rows_on_distinct_columns(self):
        attn = np.zeros((2, 5))
        attn[0, 1] = attn[1, 3] = 1.0
        assert wa.attention_penalty(attn)[0].item() == 0.0

    def test_identical_rows_positive(self):
        row = np.random.default_rng(10).dirichlet(np.ones(5))
        attn = np.stack([row, row])
        assert wa.attention_penalty(attn)[0].item() > 0.0

    def test_single_row_closed_form(self):
        row = np.random.default_rng(11).dirichlet(np.ones(6))[None, :]
        got = wa.attention_penalty(row)[0].item()
        expected = ((row * row).sum() - 1.0) ** 2
        assert got == pytest.approx(expected, abs=1e-12)

    def test_gradient_descent_reaches_orthogonality(self):
        # minimizing the penalty alone, by its own gradient, drives 2 rows of
        # length 6 orthonormal
        attn = np.random.default_rng(12).normal(0.0, 0.5, (2, 6))
        value = None
        for step in range(500):
            value, grad = wa.attention_penalty(attn)
            if value.item() < 1e-3:
                break
            attn -= 0.02 * grad(1.0)
        assert value.item() < 1e-3
        assert step < 499

    def test_end_to_end_gradient(self):
        p = params_for(2, 3, 4, 5, seed=13)
        rng = np.random.default_rng(14)
        hidden = Node(rng.uniform(-1, 1, (4, 6)))
        probe = rng.uniform(-1, 1, (5, 1))

        def f():
            # through the loss record: its one probability is 1, so the loss is
            # the penalty of the attention rows plus L2 of the projected rows
            tape = Tape()
            attn = wa.word_attention_matrix(tape, hidden, p)
            weighted = wa.weighted_sentence_matrix(tape, attn, hidden)
            rep = wa.flatten_project(tape, weighted, p)
            loss, _ = training.objective(tape, Node([[1.0]]), [0], attn,
                                         ad.mul_const(tape, rep, probe), 1.0, 1.0)
            return tape, loss

        err = finite_diff_check(f, [p.attn_hidden, p.attn_rows, p.mlp_weight, p.mlp_bias])
        assert err < 1e-5


def encoded_batch(lengths, precision, seed=0):
    """A small model's word attention weights and the encoder's states
    ``[n x 2u x t_run]`` of a batch of the given true lengths, as word
    attention receives them, with the batch's valid mask."""
    cfg = ModelConfig(word_dim=4, position_dim=2, max_distance=3, time_steps=max(lengths),
                      hidden_size=3, word_attention_hidden=5, word_attention_rows=3,
                      mlp_size=4, sent_attention_hidden=3, precision=precision)
    rng = np.random.default_rng(seed)
    model = Model(cfg, 12, 3, rng=rng)
    for p in (model.word_attn.attn_hidden, model.word_attn.attn_rows):
        p.value[...] = rng.uniform(-1.5, 1.5, p.shape)
    instances = [Instance(rng.integers(2, 12, n), 0, n - 1) for n in lengths]
    plan = enc.BatchPlan.of(lengths)
    embedded = enc.embed_batch(None, instances, plan, model.embeddings, cfg)
    return model.word_attn, enc.bilstm_encode_batch(None, embedded, plan, model.lstm), plan.valid


class TestPackedPath:
    """The word level's packed record, pinned to the all-positions path."""

    LENGTHS = [3, 6, 1, 4]

    def test_unmasked_call_keeps_the_shape_and_weighs_padding(self):
        # bench/tests/test_bench.py drops the mask by monkeypatch and needs
        # a forward and backward pass that run, with padding in the weights;
        # without a mask the batch is still one packed record
        params, hidden, valid = encoded_batch(self.LENGTHS, "float32")
        masked = wa.word_attention_matrix(None, hidden, params, valid_cols=valid).value
        tape = Tape()
        attn = wa.word_attention_matrix(tape, hidden, params, valid_cols=None)
        assert len(tape) == 1
        backward(tape, ad.sum_all(tape, ad.mul_const(tape, attn, masked)))
        assert attn.shape == masked.shape
        padding = ~np.broadcast_to(valid, masked.shape)
        assert (masked[padding] == 0.0).all() and (attn.value[padding] > 0.0).all()
        assert np.abs(attn.value - masked).max() > 1e-3

    def test_the_model_calls_the_module_attribute(self, monkeypatch):
        # the bench's monkeypatch reaches the model's pass only through
        # wa.word_attention_matrix, and must change what it computes
        cfg = ModelConfig.from_profile("synth")
        model = Model(cfg, 12, 3, rng=np.random.default_rng(5))
        instances = [Instance(np.arange(2, 2 + n), 0, n - 1) for n in (3, 6)]
        masked = model.instance_outputs(None, instances)[1].value
        original = wa.word_attention_matrix
        monkeypatch.setattr(wa, "word_attention_matrix", lambda tape, hidden, params,
                            valid_cols=None: original(tape, hidden, params, valid_cols=None))
        unmasked = model.instance_outputs(None, instances)[1].value
        assert unmasked.shape == masked.shape and unmasked[0, :, 3:].min() > 0.0
        assert masked[0, :, 3:].max() == 0.0

    def test_forward_and_every_gradient_match_the_all_positions_path(self):
        params, hidden, valid = encoded_batch(self.LENGTHS, "float64", seed=1)
        probe = np.random.default_rng(2).uniform(-1, 1, (len(self.LENGTHS), 3, max(self.LENGTHS)))
        states = Parameter("states", hidden.value)   # the encoder's token-major layout
        hid, rws = (Parameter(p.name, p.value.copy()) for p in (params.attn_hidden,
                                                                 params.attn_rows))
        tape = Tape()
        attn = ad.packed_attention(tape, states, hid, rws, valid)
        backward(tape, ad.sum_all(tape, ad.mul_const(tape, attn, probe)))

        # the all-positions path in plain numpy: every lane's logits at every
        # step, padding masked out of the softmax
        x, w1, w2 = hidden.value, params.attn_hidden.value, params.attn_rows.value
        t1 = np.tanh(w1 @ x)
        z = np.where(valid, w2 @ t1, ad.MASK_FILL)
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        d_z = p * (probe - (probe * p).sum(axis=-1, keepdims=True))
        d_t1 = (w2.T @ d_z) * (1.0 - t1 * t1)
        want = [p, (d_t1 @ x.swapaxes(1, 2)).sum(axis=0), (d_z @ t1.swapaxes(1, 2)).sum(axis=0),
                w1.T @ d_t1]

        # each gradient entry's sum of absolute terms, one term per real token
        keep = valid[:, 0]
        rows = np.swapaxes(x, 1, 2)[keep]
        h = np.tanh(rows @ w1.T)
        dl = np.swapaxes(d_z, 1, 2)[keep]
        dz = (dl @ w2) * (1.0 - h * h)
        states_terms = np.zeros_like(x)
        np.swapaxes(states_terms, 1, 2)[keep] = np.abs(dz) @ np.abs(w1)
        terms = [p, np.abs(dz).T @ np.abs(rows), np.abs(dl).T @ np.abs(h), states_terms]
        for got, want, bound in zip([attn.value, hid.grad, rws.grad, states.grad], want, terms):
            assert np.abs(want).max() > 0
            assert (np.abs(got - want) <= 1e-12 * bound).all()

    def test_same_bits_on_one_core_or_two(self, two_cores):
        params, hidden, valid = encoded_batch(self.LENGTHS, "float32", seed=3)
        probe = np.random.default_rng(4).uniform(-1, 1, (len(self.LENGTHS), 3, max(self.LENGTHS)))
        results = []
        for on in (False, True):
            calls = two_cores(on)
            states = Node(hidden.value)
            w1, w2 = (Parameter(p.name, p.value.copy()) for p in (params.attn_hidden,
                                                                   params.attn_rows))
            tape = Tape()
            attn = wa.word_attention_matrix(tape, states, wa.WordAttentionParams(
                w1, w2, params.mlp_weight, params.mlp_bias), valid_cols=valid)
            backward(tape, ad.sum_all(tape, ad.mul_const(tape, attn, probe)))
            # the forward product's row halves, then the record's gradient pair
            assert calls == ([True, True] if on else [])
            results.append((attn.value, w1.grad, w2.grad, states.grad))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)
