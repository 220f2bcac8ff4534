"""Finite-difference verification of every backward rule.

Each check builds a tiny random graph in float64 around one operation (or a
layer of a miniature model), reduces it to a scalar, and compares the taped
gradient of every parameter against central differences. The final check
runs the whole model's training loss on the same miniature configuration.
The test points (:data:`SEED`, :data:`LOSS_POINT_SEED`) and the difference
step (:data:`STEP`) are constants, so every run prints the same errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from . import word_attention as wa
from .autodiff import Parameter, Tape, finite_diff_check, sum_all
from .config import ModelConfig
from .data import Instance, SynthSpec, generate_synthetic
from .model import Model
from .training import objective, total_loss

TOLERANCE = 1e-5
SEED = 12345
LOSS_POINT_SEED = 15
STEP = 1e-5

TINY_CLASSES = 4   # relations of the miniature dataset, so classes of the miniature model
TINY_CONFIG = ModelConfig(
    word_dim=3, position_dim=2, max_distance=3, time_steps=5,
    hidden_size=2, word_attention_hidden=4, word_attention_rows=2,
    mlp_size=6, sent_attention_hidden=4, sent_attention_rows=2,
    batch_size=2, penalty_coef=1.0, l2_coef=1e-4,
    precision="float64", seed=7,
)


@dataclass
class CheckResult:
    name: str
    error: float

    @property
    def ok(self) -> bool:
        return self.error < TOLERANCE


def _param(rng, name, rows, cols, lo=-1.0, hi=1.0):
    return Parameter(name, rng.uniform(lo, hi, size=(rows, cols)))


def op_checks() -> list[CheckResult]:
    """Finite-difference check of each primitive and composite operation."""
    rng = np.random.default_rng(SEED)
    results = []

    def check(name, params, build):
        err = finite_diff_check(lambda: build(Tape()), params)
        results.append(CheckResult(name, err))

    a = _param(rng, "a", 3, 4)
    mask_arr = (rng.random((3, 4)) > 0.4).astype(float)
    check("mul_const", [a], lambda t: (t, sum_all(t, ad.mul_const(t, a, mask_arr))))
    check("mul_const_scalar", [a], lambda t: (t, ad.mul_const(t, sum_all(t, a), -2.5)))

    batch = Parameter("batch", rng.uniform(-1, 1, (2, 4, 5)))
    mean_probe = rng.uniform(-1, 1, (2, 1, 5))
    check("mean_rows", [batch],
          lambda t: (t, sum_all(t, ad.mul_const(t, ad.mean_rows(t, batch), mean_probe))))

    # two masks over five columns share the weights, a gradient into each column
    reps = _param(rng, "reps", 4, 5)
    w_hidden, w_rows = _param(rng, "w_hidden", 3, 4), _param(rng, "w_rows", 2, 3)
    bags = np.array([[[True, True, False, False, True]], [[False, False, True, True, False]]])
    attn_probe = rng.uniform(-1, 1, (2, 2, 5))
    check("attention", [reps, w_hidden, w_rows],
          lambda t: (t, sum_all(t, ad.mul_const(t, ad.attention(
              t, reps, w_hidden, w_rows, bags), attn_probe))))

    # two instances of 3 and 5 real columns, a gradient into each kept column
    states = Parameter("states", rng.uniform(-1, 1, (2, 4, 5)))
    kept = np.arange(5) < np.array([[[3]], [[5]]])
    check("attention_stacked", [states, w_hidden, w_rows],
          lambda t: (t, sum_all(t, ad.mul_const(t, ad.attention(
              t, states, w_hidden, w_rows, kept), attn_probe))))

    results.extend(pipeline_checks())
    return results


def _redraw(rng, params, lo, hi) -> None:
    """Overwrite each parameter's value with draws from uniform(lo, hi)."""
    for p in params:
        p.value[...] = rng.uniform(lo, hi, size=p.value.shape)


def pipeline_checks() -> list[CheckResult]:
    """Composite checks of the miniature model's own layers: the embedding,
    the BiLSTM, batched word attention, the model's bag-level pass and the
    loss record.

    Each check redraws its layer's test point from its own generator, keyed
    by :data:`SEED` and a number of its own, so adding or changing one check
    moves no other check's point. The step :data:`STEP` keeps
    central-difference rounding far below the tolerance on the smallest true
    gradients: the worst checks, ``total_loss`` and
    ``sentence_attention_pipeline``, err by 6.0e-8 at ``h=1e-5``, on a
    ``decayed`` entry of 5.1e-5 and a ``sent_attn_hidden`` entry of
    1.4e-4; at ``h=1e-6`` the latter errs by 1.3e-6. The loss record's
    ``decayed`` entries are drawn away from 0, as L2 at ``TINY_CONFIG``'s
    coefficient gives them the smallest gradients.
    """
    cfg = TINY_CONFIG
    model = Model(cfg, 6, TINY_CLASSES, rng=np.random.default_rng(SEED))
    results = []

    def check(name, params, build):
        err = finite_diff_check(lambda: build(Tape()), params, h=STEP)
        results.append(CheckResult(name, err))

    rng = np.random.default_rng([SEED, 0])   # one point for both LSTM directions
    lstm = [p for d in (model.lstm.fwd, model.lstm.bwd) for p in (d.w_in, d.w_rec, d.bias)]
    _redraw(rng, lstm, -0.5, 0.5)
    # the BatchPlan of lanes of lengths 2, 4, 0 and 3 runs four steps of
    # widths 3, 3, 2, 1 in both directions, the reverse one over each lane's
    # mirrored rows, and sorting scatters the states across lanes
    plan = enc.BatchPlan.of([2, 4, 0, 3])
    packed = _param(rng, "packed", plan.lanes.size, cfg.word_dim + cfg.position_dim)
    lstm_probe = rng.uniform(-1, 1, (plan.lengths.size, 2 * cfg.hidden_size, len(plan.widths)))

    def bilstm(tape):
        out = enc.bilstm_encode_batch(tape, packed, plan, model.lstm)
        return tape, sum_all(tape, ad.mul_const(tape, out, lstm_probe))

    check("bilstm", lstm + [packed], bilstm)

    rng = np.random.default_rng([SEED, 1])
    word = model.word_attn
    word_params = [word.attn_hidden, word.attn_rows, word.mlp_weight, word.mlp_bias]
    _redraw(rng, word_params[:3], -0.7, 0.7)
    _redraw(rng, word_params[3:], 0.1, 0.4)   # keeps the ReLU inputs off its kink
    # a batch of three instances with true lengths 3, 5 and 1; their states
    # are a leaf of their own, not the encoder's output, since encoder
    # rounding would bring the error near the tolerance
    n, t_len = 3, 5
    states = Parameter("states", rng.uniform(-1, 1, (n, 2 * cfg.hidden_size, t_len)))
    probe = rng.uniform(-1, 1, (cfg.mlp_size, n))
    valid = enc.BatchPlan.of([3, 5, 1]).valid

    def word_pipeline(tape):
        attn = wa.word_attention_matrix(tape, states, word, valid_cols=valid)
        weighted = wa.weighted_sentence_matrix(tape, attn, states)
        rep = wa.flatten_project(tape, weighted, word)
        return tape, sum_all(tape, ad.mul_const(tape, rep, probe))

    check("word_attention_pipeline", word_params + [states], word_pipeline)

    rng = np.random.default_rng([SEED, 2])
    sent = model.sent_attn
    sent_params = [sent.attn_hidden, sent.attn_rows, sent.class_weight, sent.class_bias]
    _redraw(rng, sent_params[:3], -0.7, 0.7)
    _redraw(rng, sent_params[3:], -0.3, 0.3)
    sizes = [1, 3, 2]
    # centred: on all-positive representations the attention logits share an
    # offset, and sent_attn_hidden gradients shrink to differences of it
    reps = Parameter("reps", rng.uniform(-1, 1, (cfg.mlp_size, sum(sizes))))

    def sent_pipeline(tape):
        probs = model.bag_outputs(tape, reps, sizes).probabilities
        return tape, objective(tape, probs, [1, 3, 0], None, None, 0.0, 0.0)[0]

    check("sentence_attention_pipeline", sent_params + [reps], sent_pipeline)

    rng = np.random.default_rng([SEED, 3])
    tables = model.embeddings
    table_params = [tables.word, tables.head_position, tables.tail_position]
    _redraw(rng, table_params, -1.0, 1.0)
    # word ids 2 and 3 repeat within and across instances, and so do position
    # buckets, so duplicate table rows must accumulate
    instances = [Instance(np.array([2, 3, 2]), 0, 2),
                 Instance(np.array([3, 3, 4, 5, 2]), 4, 1),
                 Instance(np.array([2]), 0, 0)]
    emb_plan = enc.BatchPlan.of([inst.true_length for inst in instances])
    emb_probe = rng.uniform(-1, 1, (emb_plan.lanes.size, cfg.word_dim + cfg.position_dim))

    def embedding(tape):
        out = enc.embed_batch(tape, instances, emb_plan, tables, cfg)
        return tape, sum_all(tape, ad.mul_const(tape, out, emb_probe))

    check("embedding", table_params, embedding)

    rng = np.random.default_rng([SEED, 4])
    # the loss record with the penalty and L2 on; its probabilities come from
    # a softmax over columns 0, 2 and 3, so every label's column is kept
    logits = _param(rng, "logits", 3, 4)
    w_in, w_out = _param(rng, "w_in", 3, 3), _param(rng, "w_out", 3, 3)
    attentions = Parameter("attentions", rng.uniform(-1, 1, (2, 2, 5)))
    decayed = _param(rng, "decayed", 4, 3, 0.2, 0.6)

    def loss(tape):
        probs = ad.attention(tape, logits, w_in, w_out, np.array([True, False, True, True]))
        return tape, objective(tape, probs, [2, 0, 3], attentions, decayed,
                               cfg.penalty_coef, cfg.l2_coef)[0]

    check("total_loss", [logits, attentions, decayed], loss)
    return results


def tiny_model_and_batch() -> tuple[Model, list]:
    """Miniature model plus a two-bag batch (J=3 and J=1) for full-loss checks."""
    spec = SynthSpec(num_relations=TINY_CLASSES, vocab_size=40,
                     bags_per_relation=1, max_bag_size=3, noise_ratio=0.3, seed=5)
    dataset = generate_synthetic(spec, TINY_CONFIG)
    by_size = sorted(dataset.bags, key=lambda b: -len(b.instances))
    bags = [by_size[0], by_size[-1]]
    while len(bags[0].instances) < 3:   # guarantee a J=3 bag
        bags[0].instances.append(bags[0].instances[0])
    bags[0].instances = bags[0].instances[:3]
    rng = np.random.default_rng(TINY_CONFIG.seed)
    model = Model(TINY_CONFIG, len(dataset.vocab), len(dataset.relations), rng=rng)
    return model, bags


def full_loss_check() -> CheckResult:
    """Gradient of the complete training loss on the miniature configuration.

    The check evaluates at a test point whose parameter entries all have
    magnitude in [0.2, 0.6], so that central-difference rounding noise (which
    grows as 1/h) stays far below the tolerance even on the smallest true
    gradient, a ``w_rec`` entry: it errs by 3.6e-7 at ``h=1e-5``, 4.4e-6 at
    ``h=1e-6``. Wrong backward rules show up as errors of 1e-2 or more.
    """
    model, bags = tiny_model_and_batch()
    rng = np.random.default_rng(LOSS_POINT_SEED)
    for p in model.named_parameters().values():   # table order, as the point was drawn
        mag = rng.uniform(0.2, 0.6, size=p.value.shape)
        sign = rng.choice([-1.0, 1.0], size=p.value.shape)
        p.value[...] = mag * sign

    def build():
        tape = Tape()
        loss, _ = total_loss(tape, bags, model)
        return tape, loss

    err = finite_diff_check(build, model.parameters(), h=STEP)
    return CheckResult("full_model_total_loss", err)


def run_all() -> list[CheckResult]:
    results = op_checks() + [full_loss_check()]
    width = max(len(r.name) for r in results)
    for r in results:
        status = "ok" if r.ok else "FAIL"
        print(f"{r.name:<{width}}  max rel err {r.error:.3e}  {status}")
    worst = max(results, key=lambda r: r.error)
    print(f"worst: {worst.name} at {worst.error:.3e} (tolerance {TOLERANCE})")
    return results
