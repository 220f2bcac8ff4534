"""Finite-difference verification of every backward rule.

Each check builds a tiny random graph in float64 around one operation (or a
composite pipeline), reduces it to a scalar, and compares the taped gradient
of every parameter against central differences. The final check runs the
whole model's training loss on a miniature configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Parameter, Tape, finite_diff_check
from .config import ModelConfig
from .data import Instance, SynthSpec, generate_synthetic
from .model import Model
from .training import total_loss

TOLERANCE = 1e-5

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


def _sum(tape, node):
    return ad.sum_all(tape, node)


def op_checks(seed: int = 12345) -> list[CheckResult]:
    """Finite-difference check of each primitive and composite operation."""
    rng = np.random.default_rng(seed)
    results = []

    def check(name, params, build):
        err = finite_diff_check(lambda: build(Tape()), params)
        results.append(CheckResult(name, err))

    a = _param(rng, "a", 3, 4)
    b = _param(rng, "b", 2, 3)
    # batches of 2, with 2-D operands shared by the batch on either side
    batch = Parameter("batch", rng.uniform(-1, 1, (2, 4, 5)))
    batch2 = Parameter("batch2", rng.uniform(-1, 1, (2, 5, 2)))
    prod_probe = rng.uniform(-1, 1, (2, 3, 3))
    check("matmul", [a, batch, batch2, b],
          lambda t: (t, _sum(t, ad.mul_const(t, ad.matmul(t, ad.matmul(t, ad.matmul(t, a, batch),
                                                                       batch2), b), prod_probe))))

    c = _param(rng, "c", 3, 4)
    check("add", [a, c], lambda t: (t, _sum(t, ad.add(t, a, c))))

    bias = _param(rng, "bias", 3, 1)
    check("add_broadcast_bias", [a, bias],
          lambda t: (t, _sum(t, ad.mul_const(t, ad.add(t, a, bias), c.value))))

    mask_arr = (rng.random((3, 4)) > 0.4).astype(float)
    check("mul_const", [a],
          lambda t: (t, _sum(t, ad.mul_const(t, ad.tanh_map(t, a), mask_arr))))
    check("mul_const_scalar", [a], lambda t: (t, ad.mul_const(t, _sum(t, a), -2.5)))

    check("tanh_map", [a], lambda t: (t, _sum(t, ad.mul_const(t, ad.tanh_map(t, a), c.value))))

    # keep inputs away from the kink at zero
    r_in = Parameter("r_in", np.where(np.abs(z := rng.uniform(-1, 1, (3, 4))) < 0.05,
                                      z + 0.2, z))
    check("relu_map", [r_in],
          lambda t: (t, _sum(t, ad.mul_const(t, ad.relu_map(t, r_in), c.value))))

    check("row_softmax", [a],
          lambda t: (t, _sum(t, ad.mul_const(t, ad.row_softmax(t, a), c.value))))
    valid = np.array([[[True, True, False, True]], [[False, False, True, True]]])
    soft_probe = rng.uniform(-1, 1, (2, 3, 4))   # the mask adds the batch axis
    check("row_softmax_masked", [a],
          lambda t: (t, _sum(t, ad.mul_const(t, ad.row_softmax(t, a, valid_cols=valid),
                                             soft_probe))))

    t_probe = rng.uniform(-1, 1, (2, 5, 4))
    check("transpose", [batch],
          lambda t: (t, _sum(t, ad.mul_const(t, ad.transpose(t, batch), t_probe))))
    check("reshape", [a],
          lambda t: (t, _sum(t, ad.mul_const(t, ad.reshape(t, a, 2, 6),
                                             c.value.reshape(2, 6)))))

    mean_probe = rng.uniform(-1, 1, (2, 1, 5))
    check("mean_rows", [batch],
          lambda t: (t, _sum(t, ad.mul_const(t, ad.mean_rows(t, batch), mean_probe))))
    check("sum_squares", [a, c], lambda t: (t, ad.sum_squares(t, a, c, a)))

    check("frobenius_penalty", [batch], lambda t: (t, ad.frobenius_penalty(t, batch)))

    logits = _param(rng, "logits", 3, 4)
    check("cross_entropy", [logits],
          lambda t: (t, ad.cross_entropy(t, ad.row_softmax(t, logits), [2, 0, 3])))

    results.extend(pipeline_checks(seed))
    return results


def pipeline_checks(seed: int = 54321) -> list[CheckResult]:
    """Composite checks: the embedding, the BiLSTM and both batched attention pipelines.

    Each pipeline draws its test point from its own generator, keyed by
    ``seed`` and a number of its own, so adding or changing one check moves
    no other check's point. The step ``h=1e-5`` keeps central-difference
    rounding far below the tolerance on the smallest true gradients: the
    worst check, ``sentence_attention_pipeline`` at seed 12345, errs by
    1.7e-7 at ``h=1e-5`` and by 5.0e-6 at ``h=1e-6``, both on a
    ``sent_attn_hidden`` entry of 2.6e-5.
    """
    from . import encoder as enc
    from . import sentence_attention as sa
    from . import word_attention as wa

    results, h = [], 1e-5
    rng = np.random.default_rng([seed, 0])   # one point for both LSTM directions
    u, d_in = 2, 3

    lstm = enc.LstmParams(*(enc.LstmDirection(
        w_in=_param(rng, f"{name}_w_in", 4 * u, d_in, -0.5, 0.5),
        w_rec=_param(rng, f"{name}_w_rec", 4 * u, u, -0.5, 0.5),
        bias=_param(rng, f"{name}_bias", 4 * u, 1, -0.5, 0.5),
    ) for name in ("fwd", "bwd")))
    # lanes of lengths 2, 4, 0 and 3 run four steps of widths 3, 3, 2, 1 in
    # both directions, the reverse one over each lane's mirrored rows, and
    # sorting scatters the states across lanes
    lengths = [2, 4, 0, 3]
    packed = _param(rng, "packed", sum(lengths), d_in)
    lstm_probe = rng.uniform(-1, 1, (len(lengths), 2 * u, max(lengths)))

    def bilstm(tape):
        out = enc.bilstm_encode_batch(tape, packed, lengths, lstm)
        return tape, _sum(tape, ad.mul_const(tape, out, lstm_probe))

    err = finite_diff_check(lambda: bilstm(Tape()),
                            [p for d in (lstm.fwd, lstm.bwd) for p in (d.w_in, d.w_rec, d.bias)]
                            + [packed], h=h)
    results.append(CheckResult("bilstm", err))

    rng = np.random.default_rng([seed, 1])
    r1, da1, v, t_len = 2, 3, 4, 5
    word = wa.WordAttentionParams(
        attn_hidden=_param(rng, "wah", da1, 2 * u, -0.7, 0.7),
        attn_rows=_param(rng, "war", r1, da1, -0.7, 0.7),
        mlp_weight=_param(rng, "wmw", v, r1 * 2 * u, -0.7, 0.7),
        mlp_bias=_param(rng, "wmb", v, 1, 0.1, 0.4),
    )
    n = 3   # a batch of three instances with true lengths 3, 5 and 1
    hidden_const = Node(rng.uniform(-1, 1, (n, 2 * u, t_len)))
    probe = rng.uniform(-1, 1, (v, n))
    valid = (np.arange(t_len) < np.array([3, 5, 1])[:, None])[:, None, :]

    def word_pipeline(tape):
        attn = wa.word_attention_matrix(tape, hidden_const, word, valid_cols=valid)
        weighted = wa.weighted_sentence_matrix(tape, attn, hidden_const)
        rep = wa.flatten_project(tape, weighted, word)
        loss = ad.add(tape, _sum(tape, ad.mul_const(tape, rep, probe)),
                      wa.attention_penalty(tape, attn))
        return tape, loss

    err = finite_diff_check(lambda: word_pipeline(Tape()),
                            [word.attn_hidden, word.attn_rows, word.mlp_weight, word.mlp_bias],
                            h=h)
    results.append(CheckResult("word_attention_pipeline", err))

    rng = np.random.default_rng([seed, 2])
    r2, da2, classes, sizes = 2, 3, 4, [1, 3, 2]
    sent = sa.SentAttentionParams(
        attn_hidden=_param(rng, "sah", da2, v, -0.7, 0.7),
        attn_rows=_param(rng, "sar", r2, da2, -0.7, 0.7),
        class_weight=_param(rng, "scw", classes, v, -0.7, 0.7),
        class_bias=_param(rng, "scb", classes, 1, -0.3, 0.3),
    )
    reps = Node(rng.uniform(0, 1, (v, sum(sizes))))

    def sent_pipeline(tape):
        attn = sa.sentence_attention_matrix(tape, reps, sent, sa.stack_bag(sizes))
        averaged = sa.average_attention(tape, attn)
        selection = sa.selection_representation(tape, averaged, reps)
        probs = sa.classify(tape, selection, sent)
        return tape, ad.cross_entropy(tape, probs, [1, 3, 0])

    err = finite_diff_check(lambda: sent_pipeline(Tape()),
                            [sent.attn_hidden, sent.attn_rows, sent.class_weight, sent.class_bias],
                            h=h)
    results.append(CheckResult("sentence_attention_pipeline", err))

    rng = np.random.default_rng([seed, 3])
    tables = Model(TINY_CONFIG, 6, TINY_CLASSES, rng=rng).embeddings
    # word ids 2 and 3 repeat within and across instances, and so do position
    # buckets, so duplicate table rows must accumulate
    instances = [Instance(np.array([2, 3, 2]), 0, 2),
                 Instance(np.array([3, 3, 4, 5, 2]), 4, 1),
                 Instance(np.array([2]), 0, 0)]
    emb_probe = rng.uniform(-1, 1, (sum(inst.true_length for inst in instances),
                                    TINY_CONFIG.word_dim + TINY_CONFIG.position_dim))

    def embedding(tape):
        out = enc.embed_batch(tape, instances, tables, TINY_CONFIG)
        return tape, _sum(tape, ad.mul_const(tape, out, emb_probe))

    err = finite_diff_check(lambda: embedding(Tape()),
                            [tables.word, tables.head_position, tables.tail_position], h=h)
    results.append(CheckResult("embedding", err))
    return results


def tiny_model_and_batch(config: ModelConfig = TINY_CONFIG,
                         ) -> tuple[Model, list]:
    """Miniature model plus a two-bag batch (J=3 and J=1) for full-loss checks."""
    spec = SynthSpec(num_relations=TINY_CLASSES, vocab_size=40,
                     bags_per_relation=1, max_bag_size=3, noise_ratio=0.3, seed=5)
    dataset = generate_synthetic(spec, config)
    by_size = sorted(dataset.bags, key=lambda b: -len(b.instances))
    bags = [by_size[0], by_size[-1]]
    while len(bags[0].instances) < 3:   # guarantee a J=3 bag
        bags[0].instances.append(bags[0].instances[0])
    bags[0].instances = bags[0].instances[:3]
    rng = np.random.default_rng(config.seed)
    model = Model(config, len(dataset.vocab), len(dataset.relations), rng=rng)
    return model, bags


def full_loss_check(h: float = 1e-5, point_seed: int = 15) -> CheckResult:
    """Gradient of the complete training loss on the miniature configuration.

    The check evaluates at a test point whose parameter entries all have
    magnitude in [0.2, 0.6], so that central-difference rounding noise (which
    grows as 1/h) stays far below the tolerance even on the smallest true
    gradient, a ``w_rec`` entry: it errs by 3.6e-7 at ``h=1e-5``, 4.4e-6 at
    ``h=1e-6``. Wrong backward rules show up as errors of 1e-2 or more.
    """
    model, bags = tiny_model_and_batch()
    rng = np.random.default_rng(point_seed)
    for p in model.named_parameters().values():   # table order, as the point was drawn
        mag = rng.uniform(0.2, 0.6, size=p.value.shape)
        sign = rng.choice([-1.0, 1.0], size=p.value.shape)
        p.value[...] = mag * sign

    def build():
        tape = Tape()
        loss, _ = total_loss(tape, bags, model)
        return tape, loss

    err = finite_diff_check(build, model.parameters(), h=h)
    return CheckResult("full_model_total_loss", err)


def run_all(verbose: bool = True) -> list[CheckResult]:
    results = op_checks() + [full_loss_check()]
    if verbose:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "ok" if r.ok else "FAIL"
            print(f"{r.name:<{width}}  max rel err {r.error:.3e}  {status}")
        worst = max(results, key=lambda r: r.error)
        print(f"worst: {worst.name} at {worst.error:.3e} (tolerance {TOLERANCE})")
    return results
