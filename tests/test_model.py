"""The batched model pass pinned to a plain-numpy per-instance/per-bag reference.

The reference below runs word attention one instance at a time and sentence
attention one bag at a time, with hand-written backward rules and no
autodiff. Only the BiLSTM output comes from the package. The pin ends at
the gradient that the word level hands the encoder: the encoder's own
parameter gradients are pinned to its per-gate reference in test_encoder.py.

Each reference gradient is a sum of terms, one per bag, instance or decay
rule, and each entry is bounded by 1e-12 times that entry's sum of absolute
terms: where the terms cancel, the entry's rounding error can exceed its own
size. The states' gradient takes its terms from every product on its path
from the loss.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relattn import autodiff as ad
from relattn import encoder as enc
from relattn import sentence_attention as sa
from relattn import word_attention as wa
from relattn.autodiff import Tape, backward
from relattn.config import ModelConfig
from relattn.data import Bag, Instance
from relattn.model import DECAYED_RULES, Model, expected_shapes
from relattn import training
from relattn.training import total_loss


def softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax_backward(p, dp):
    return p * (dp - (dp * p).sum(axis=1, keepdims=True))


def reference_loss_and_grads(model, bags, dropout_rng=None):
    """Loss of ``total_loss``; d(loss)/d(parameter) instance by instance for
    every parameter above the encoder, and d(loss)/d(encoder states); each
    gradient entry's sum of absolute terms, keyed like the gradients, the
    states under ``"hidden"``.

    A state's gradient is the last of a chain of products, each of which can
    cancel, so its terms are traced from the loss: the chain's running sum
    of absolute terms (the ``m_`` arrays) repeats each product with every
    factor's absolute value or magnitude."""
    cfg = model.config
    ordered = sorted(bags, key=lambda b: b.bag_id)
    instances = [inst for bag in ordered for inst in bag.instances]
    n_bags = len(ordered)
    wa_p, sa_p = model.word_attn, model.sent_attn
    wh, wr, wm, bm = (p.value for p in (wa_p.attn_hidden, wa_p.attn_rows,
                                        wa_p.mlp_weight, wa_p.mlp_bias))
    sh, sr, cw, cb = (p.value for p in (sa_p.attn_hidden, sa_p.attn_rows,
                                        sa_p.class_weight, sa_p.class_bias))
    grads = {name: np.zeros_like(p.value) for name, p in model.named_parameters().items()}
    magnitudes = {name: np.zeros_like(g) for name, g in grads.items()}

    def add(name, term):
        grads[name] += term
        magnitudes[name] += np.abs(term)

    plan = enc.BatchPlan.of([inst.true_length for inst in instances])
    embedded = enc.embed_batch(None, instances, plan, model.embeddings, cfg)
    hidden_all = enc.bilstm_encode_batch(None, embedded, plan, model.lstm).value

    # word attention, one instance at a time on its [2u x t_run] states
    word = []
    for j, inst in enumerate(instances):
        h = hidden_all[j]
        t1 = np.tanh(wh @ h)
        attn = np.zeros((wr.shape[0], h.shape[1]))
        attn[:, :inst.true_length] = softmax_rows((wr @ t1)[:, :inst.true_length])
        flat = (attn @ h.T).reshape(-1, 1)
        pre = wm @ flat + bm
        keep = np.ones_like(pre)
        if dropout_rng is not None and cfg.dropout > 0.0:
            keep = (dropout_rng.random(pre.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
        gram = attn @ attn.T - np.eye(attn.shape[0])
        word.append(dict(h=h, t1=t1, attn=attn, flat=flat, pre=pre, keep=keep, gram=gram,
                         rep=np.maximum(pre, 0.0) * keep))
    reps = np.hstack([w["rep"] for w in word])

    # sentence attention and classification, one bag at a time
    loss = 0.0
    d_reps = np.zeros_like(reps)
    m_reps = np.zeros_like(reps)
    offset = 0
    for bag in ordered:
        cols = slice(offset, offset + len(bag.instances))
        offset += len(bag.instances)
        s = reps[:, cols]
        t2 = np.tanh(sh @ s)
        b_attn = softmax_rows(sr @ t2)
        avg = b_attn.mean(axis=0)
        sel = s @ avg[:, None]
        ts = np.tanh(sel)
        probs = softmax_rows((cw @ ts + cb).T)[0]
        loss += -np.log(probs[bag.relation_id]) / n_bags

        d_logits = probs.copy()
        d_logits[bag.relation_id] -= 1.0
        d_logits = d_logits[:, None] / n_bags
        add("class_weight", d_logits @ ts.T)
        add("class_bias", d_logits)
        d_sel = (cw.T @ d_logits) * (1.0 - ts * ts)
        d_s = d_sel @ avg[None, :]
        d_b_attn = np.repeat((s.T @ d_sel).T, b_attn.shape[0], axis=0) / b_attn.shape[0]
        d_lg2 = softmax_backward(b_attn, d_b_attn)
        add("sent_attn_rows", d_lg2 @ t2.T)
        d_b1 = (sr.T @ d_lg2) * (1.0 - t2 * t2)
        add("sent_attn_hidden", d_b1 @ s.T)
        d_reps[:, cols] = d_s + sh.T @ d_b1

        m_sel = (np.abs(cw).T @ np.abs(d_logits)) * (1.0 - ts * ts)
        m_b_attn = np.repeat((np.abs(s).T @ m_sel).T, b_attn.shape[0], axis=0) / b_attn.shape[0]
        m_lg2 = b_attn * (m_b_attn + (m_b_attn * b_attn).sum(axis=1, keepdims=True))
        m_reps[:, cols] = m_sel @ avg[None, :] + np.abs(sh).T @ ((np.abs(sr).T @ m_lg2)
                                                                 * (1.0 - t2 * t2))

    # back through word attention, instance by instance
    pen_scale = cfg.penalty_coef / n_bags
    loss += pen_scale * sum((w["gram"] ** 2).sum() for w in word)
    d_hidden = np.zeros_like(hidden_all)
    magnitudes["hidden"] = np.zeros_like(hidden_all)
    for j, w in enumerate(word):
        d_pre = d_reps[:, j:j + 1] * w["keep"] * (w["pre"] > 0)
        add("word_mlp_weight", d_pre @ w["flat"].T)
        add("word_mlp_bias", d_pre)
        d_weighted = (wm.T @ d_pre).reshape(w["attn"].shape[0], -1)
        d_attn = d_weighted @ w["h"] + pen_scale * 4.0 * (w["gram"] @ w["attn"])
        d_h = d_weighted.T @ w["attn"]
        d_lg = softmax_backward(w["attn"], d_attn)
        add("word_attn_rows", d_lg @ w["t1"].T)
        d_a1 = (wr.T @ d_lg) * (1.0 - w["t1"] ** 2)
        add("word_attn_hidden", d_a1 @ w["h"].T)
        d_hidden[j] = d_h + wh.T @ d_a1

        m_pre = m_reps[:, j:j + 1] * w["keep"] * (w["pre"] > 0)
        m_weighted = (np.abs(wm).T @ m_pre).reshape(w["attn"].shape[0], -1)
        m_attn = m_weighted @ np.abs(w["h"]) + pen_scale * 4.0 * (np.abs(w["gram"]) @ w["attn"])
        m_lg = w["attn"] * (m_attn + (m_attn * w["attn"]).sum(axis=1, keepdims=True))
        m_a1 = (np.abs(wr).T @ m_lg) * (1.0 - w["t1"] ** 2)
        magnitudes["hidden"][j] = m_weighted.T @ w["attn"] + np.abs(wh).T @ m_a1

    vocab_size = len(model.embeddings.word.value)
    for name, (_, rule) in expected_shapes(cfg, vocab_size, model.num_classes).items():
        if rule in DECAYED_RULES:
            value = model.named_parameters()[name].value
            loss += cfg.l2_coef * (value ** 2).sum()
            add(name, 2.0 * cfg.l2_coef * value)

    return loss, grads, d_hidden, magnitudes


CLASSES = 3


@st.composite
def batches(draw):
    t_steps = draw(st.integers(2, 6))
    cfg = ModelConfig(word_dim=3, position_dim=2, max_distance=3, time_steps=t_steps,
                      hidden_size=2, word_attention_hidden=3,
                      word_attention_rows=draw(st.integers(1, 3)), mlp_size=4,
                      sent_attention_hidden=3, sent_attention_rows=draw(st.integers(1, 3)),
                      precision="float64", l2_coef=1e-3,
                      dropout=draw(st.sampled_from([0.0, 0.3])))
    bags = []
    for b in range(draw(st.integers(1, 4))):
        instances = []
        for _ in range(draw(st.integers(1, 5))):
            length = draw(st.integers(1, t_steps))
            ids = draw(st.lists(st.integers(2, 9), min_size=length, max_size=length))
            head, tail = draw(st.integers(0, length - 1)), draw(st.integers(0, length - 1))
            instances.append(Instance(np.array(ids), head, tail))
        bags.append(Bag(f"bag{draw(st.integers(0, 99)):02d}-{b}", "h", "t",
                        draw(st.integers(0, CLASSES - 1)), instances))
    return cfg, bags, draw(st.integers(0, 2**32 - 1))


def tiny_config(time_steps, dropout, word_rows=1, sent_rows=1):
    return ModelConfig(word_dim=3, position_dim=2, max_distance=3, time_steps=time_steps,
                       hidden_size=2, word_attention_hidden=3, word_attention_rows=word_rows,
                       mlp_size=4, sent_attention_hidden=3, sent_attention_rows=sent_rows,
                       precision="float64", l2_coef=1e-3, dropout=dropout)


# one-token instances of word ids 5 and 2
TOKEN_5 = Instance(np.array([5]), 0, 0)
TOKEN_2 = Instance(np.array([2]), 0, 0)


class TestBatchedPassMatchesPerInstanceReference:
    @settings(max_examples=60, deadline=None)
    @given(batches())
    # lanes whose gradients cancel in the encoder: one bag of one one-token
    # instance, and three bags of different labels sharing one
    @example((tiny_config(2, 0.3), [Bag("bag00-0", "h", "t", 0, [TOKEN_5])], 2004))
    @example((tiny_config(2, 0.0), [Bag(f"bag{k:02d}-{k}", "h", "t", k, [TOKEN_5])
                                    for k in range(3)], 0))
    # states' gradients that cancel to 1e-5 and 1e-6 of their neighbours
    @example((tiny_config(2, 0.3, 3, 2), [
        Bag("bag01-0", "h", "t", 0, [TOKEN_2]),
        Bag("bag00-1", "h", "t", 2, [TOKEN_2, Instance(np.array([2, 2]), 1, 0)])], 11373694))
    @example((tiny_config(2, 0.0), [
        Bag("bag00-0", "h", "t", 1, [Instance(np.array([8, 7]), 1, 1), TOKEN_2]),
        Bag("bag00-1", "h", "t", 0, [TOKEN_2])], 202))
    def test_total_loss_and_every_gradient(self, batch):
        cfg, bags, seed = batch
        model = Model(cfg, 10, CLASSES, rng=np.random.default_rng(seed))
        ref_loss, ref_grads, ref_hidden, magnitudes = reference_loss_and_grads(
            model, bags, np.random.default_rng(seed + 1))
        model.zero_grad()
        handed = []   # the gradient of the encoder's states, as its record replays
        real_encoder = enc.bilstm_encode_batch

        def noting_encoder(tape, *args):
            out = real_encoder(tape, *args)
            _, replay = tape._records[-1]

            def noted():
                handed.append(out.grad.copy())
                replay()
            tape._records[-1] = (out, noted)
            return out

        tape = Tape()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(enc, "bilstm_encode_batch", noting_encoder)
            loss, _ = total_loss(tape, bags, model,
                                 dropout_rng=np.random.default_rng(seed + 1))
        backward(tape, loss)

        assert abs(loss.value.item() - ref_loss) <= 1e-12 * abs(ref_loss)
        encoder = {p.name for p in (*vars(model.embeddings).values(),
                                    *vars(model.lstm.fwd).values(),
                                    *vars(model.lstm.bwd).values())}
        for name, p in model.named_parameters().items():
            if name not in encoder:
                err = np.abs(p.grad - ref_grads[name])
                assert (err <= 1e-12 * magnitudes[name]).all(), name
        assert len(handed) == 1
        assert (np.abs(handed[0] - ref_hidden) <= 1e-12 * magnitudes["hidden"]).all()


class TestOnePlanPerPass:
    def test_forward_and_its_backward_build_one_plan(self, monkeypatch):
        # the embedding, both LSTM directions, their BPTT and word attention's
        # mask all read the plan that instance_outputs builds
        built = []
        real_init = enc.BatchPlan.__init__

        def counting_init(plan, *args):
            built.append(plan)
            real_init(plan, *args)

        monkeypatch.setattr(enc.BatchPlan, "__init__", counting_init)
        cfg = ModelConfig(word_dim=3, position_dim=2, max_distance=3, time_steps=5,
                          hidden_size=2, word_attention_hidden=3, mlp_size=4,
                          sent_attention_hidden=3, precision="float64")
        model = Model(cfg, 10, CLASSES, rng=np.random.default_rng(0))
        groups = [[Instance(np.array([2, 3, 4]), 0, 2), Instance(np.array([5]), 0, 0)],
                  [Instance(np.array([6, 7, 8, 9, 2]), 1, 3)]]
        tape = Tape()
        out = model.forward(tape, groups, dropout_rng=np.random.default_rng(1))
        backward(tape, training.objective(tape, out.probabilities, [0, 2], None, None,
                                          0.0, 0.0)[0])
        assert len(built) == 1 and built[0].lengths.tolist() == [3, 1, 5]
        model.forward(None, groups[1:])
        assert len(built) == 2


def small_batch(cfg):
    """Three bags of true lengths up to the profile's ``time_steps``."""
    rng = np.random.default_rng(4)
    return [Bag(f"b{k}", "h", "t", k % CLASSES,
                [Instance(rng.integers(2, 40, n), 0, n - 1) for n in sizes])
            for k, sizes in enumerate([(cfg.time_steps, 5, 12), (1,), (30, 2)])]


class TestNoProductOfAMatrixWithAStack:
    @pytest.mark.parametrize("profile", ["synth", "nyt"])
    def test_forward_and_backward(self, profile, monkeypatch):
        # every record's forward product is 2-D by 2-D or stack by stack, so
        # autodiff._product's row halves are the pass's only split product
        seen = []
        real_product = ad._product

        def noting_product(x, y):
            seen.append((x.ndim, y.ndim))
            return real_product(x, y)

        monkeypatch.setattr(ad, "_product", noting_product)
        cfg = ModelConfig.from_profile(profile)
        model = Model(cfg, 40, CLASSES, rng=np.random.default_rng(3))
        tape = Tape()
        loss, _ = total_loss(tape, small_batch(cfg), model,
                             dropout_rng=np.random.default_rng(5))
        backward(tape, loss)
        assert (2, 2) in seen and (3, 3) in seen
        assert set(seen) <= {(2, 2), (3, 3)}


# every function that a training pass calls to add to the tape, the loss included
LAYER_FUNCTIONS = [(enc, "embed_batch"), (enc, "bilstm_encode_batch"),
                   (wa, "word_attention_matrix"), (wa, "weighted_sentence_matrix"),
                   (wa, "flatten_project"), (sa, "sentence_attention_matrix"),
                   (sa, "average_attention"), (sa, "selection_representation"),
                   (sa, "classify"), (training, "objective")]


class TestTapeRecords:
    @staticmethod
    def records(profile, monkeypatch, **settings):
        """The records each layer function added in one ``total_loss`` pass,
        the tape's length, and the calls of ``word_attention.attention_penalty``."""
        added, penalties = {}, []

        def counting(name, real):
            def run(tape, *args, **kwargs):
                before = len(tape)
                out = real(tape, *args, **kwargs)
                added.setdefault(name, []).append(len(tape) - before)
                return out
            return run

        def noting(real):
            def run(attention):
                penalties.append(attention.shape)
                return real(attention)
            return run

        for module, name in LAYER_FUNCTIONS:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        monkeypatch.setattr(wa, "attention_penalty", noting(wa.attention_penalty))
        cfg = ModelConfig.from_profile(profile, **settings)
        model = Model(cfg, 40, CLASSES, rng=np.random.default_rng(3))
        tape = Tape()
        total_loss(tape, small_batch(cfg), model, dropout_rng=np.random.default_rng(4))
        return added, len(tape), len(penalties)

    @pytest.mark.parametrize("profile", ["synth", "nyt"])
    def test_one_record_per_layer_function(self, profile, monkeypatch):
        # the sentence level's attention runs the 2-D record, and the loss is
        # one record: a pass without dropout records 10 entries. The loss
        # takes the penalty through the module attribute, which records nothing
        added, records, penalties = self.records(profile, monkeypatch)
        assert added == {name: [1] for _, name in LAYER_FUNCTIONS}
        assert records == 10 and penalties == 1

    def test_dropout_adds_one_record(self, monkeypatch):
        added, records, _ = self.records("synth", monkeypatch, dropout=0.3)
        assert added == {name: [1] for _, name in LAYER_FUNCTIONS}
        assert records == 11
