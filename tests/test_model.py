"""The batched model pass pinned to a plain-numpy per-instance/per-bag reference.

The reference below runs word attention one instance at a time and sentence
attention one bag at a time, with hand-written backward rules and no
autodiff. Only the BiLSTM output comes from the package: its gradient is
pushed back through the encoder's own tape (the encoder is pinned to its
own per-gate reference in test_encoder.py).

Each reference gradient is a sum of terms, one per bag, instance, decay rule
or entry of the encoder's output gradient, and each entry is bounded by
1e-12 times that entry's sum of absolute terms: where the terms cancel, the
entry's rounding error can exceed its own size.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relattn import autodiff as ad
from relattn import encoder as enc
from relattn.autodiff import Tape, backward
from relattn.config import ModelConfig
from relattn.data import Bag, Instance
from relattn.model import DECAYED_RULES, Model, expected_shapes
from relattn.training import total_loss


def softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax_backward(p, dp):
    return p * (dp - (dp * p).sum(axis=1, keepdims=True))


def reference_loss_and_grads(model, bags, dropout_rng=None):
    """Loss of ``total_loss``, d(loss)/d(parameter) instance by instance, and
    each gradient entry's sum of absolute terms."""
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

    tape = Tape()
    plan = enc.BatchPlan.of([inst.true_length for inst in instances])
    embedded = enc.embed_batch(tape, instances, plan, model.embeddings, cfg)
    hidden_node = enc.bilstm_encode_batch(tape, embedded, plan, model.lstm)
    hidden_all = hidden_node.value

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

    # back through word attention, instance by instance
    pen_scale = cfg.penalty_coef / n_bags
    loss += pen_scale * sum((w["gram"] ** 2).sum() for w in word)
    d_hidden = np.zeros_like(hidden_all)
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

    vocab_size = len(model.embeddings.word.value)
    for name, (_, rule) in expected_shapes(cfg, vocab_size, model.num_classes).items():
        if rule in DECAYED_RULES:
            value = model.named_parameters()[name].value
            loss += cfg.l2_coef * (value ** 2).sum()
            add(name, 2.0 * cfg.l2_coef * value)

    # embedding and BiLSTM gradients: the encoder's own tape, fed one entry
    # of d_hidden at a time, so each term is one hidden value's share
    encoder_params = [model.embeddings.word, model.embeddings.head_position,
                      model.embeddings.tail_position,
                      *(p for d in (model.lstm.fwd, model.lstm.bwd)
                        for p in (d.w_in, d.w_rec, d.bias))]
    for k in np.flatnonzero(d_hidden):
        d_entry = np.zeros_like(d_hidden)
        d_entry.flat[k] = d_hidden.flat[k]
        for p in encoder_params:
            p.zero_grad()
        backward(tape, ad.sum_all(tape, ad.mul_const(tape, hidden_node, d_entry)))
        for p in encoder_params:
            add(p.name, p.grad)
    return loss, grads, magnitudes


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


class TestBatchedPassMatchesPerInstanceReference:
    @settings(max_examples=60, deadline=None)
    @given(batches())
    def test_total_loss_and_every_gradient(self, batch):
        cfg, bags, seed = batch
        model = Model(cfg, 10, CLASSES, rng=np.random.default_rng(seed))
        ref_loss, ref_grads, magnitudes = reference_loss_and_grads(
            model, bags, np.random.default_rng(seed + 1))
        model.zero_grad()
        tape = Tape()
        loss, _ = total_loss(tape, bags, model, dropout_rng=np.random.default_rng(seed + 1))
        backward(tape, loss)

        assert abs(loss.value.item() - ref_loss) <= 1e-12 * abs(ref_loss)
        for name, p in model.named_parameters().items():
            err = np.abs(p.grad - ref_grads[name])
            assert (err <= 1e-12 * magnitudes[name]).all(), name


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
        backward(tape, ad.cross_entropy(tape, out.probabilities, [0, 2]))
        assert len(built) == 1 and built[0].lengths.tolist() == [3, 1, 5]
        model.forward(None, groups[1:])
        assert len(built) == 2
