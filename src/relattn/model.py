"""The full bag-level model: its parameter table and batched forward passes.

:func:`expected_shapes` lists every tensor once, with its shape and init
rule, in the order a fresh model draws them; fresh and checkpoint-loaded
models are both built by one walk over it. The layer modules take their
tensors from the model as the dataclasses they define.

Instances of a batch are encoded together: the encoder packs their real
tokens and returns their states as ``[n x 2u x t_run]``, up to the longest
true length. Word attention then runs once over all instances, and sentence
attention once over all bags, each masked to its own instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from . import sentence_attention as sa
from . import word_attention as wa
from .autodiff import Node, Parameter, Tape
from .config import ConfigError, ModelConfig
from .data import Bag, Instance


@dataclass
class BagForward:
    """Everything a pass over B bags of N instances produces, for export."""

    attention: Node         # [B x rows x N] sentence-level attention
    averaged: Node          # [B x 1 x N] mean attention row per bag
    probabilities: Node     # [B x num_classes]
    word_attentions: Node | None = None   # [N x rows x longest true length]


class Model:
    """Holds all parameters and runs forward passes."""

    def __init__(self, config: ModelConfig, vocab_size: int, num_classes: int,
                 rng: np.random.Generator | None = None,
                 tensors: dict[str, np.ndarray] | None = None,
                 pretrained: dict[str, np.ndarray] | None = None,
                 token_ids: dict[str, int] | None = None) -> None:
        """A fresh model draws each tensor from ``rng`` by its table rule, with
        ``pretrained`` rows put into ``word_emb``; a loaded one takes it from
        ``tensors``, and a missing or misshapen one is a ValueError. A tensor
        too large to allocate is a ConfigError naming it and its shape."""
        config.validate()
        self.config = config
        self.vocab_size = vocab_size
        self.num_classes = num_classes
        table = expected_shapes(config, vocab_size, num_classes)
        if tensors is None and rng is None:
            raise ValueError("need an rng to initialize a fresh model")
        missing = [] if tensors is None else sorted(set(table) - set(tensors))
        if missing:
            raise ValueError(f"checkpoint is missing tensors: {missing}")
        self._params: dict[str, Parameter] = {}
        for name, (shape, rule) in table.items():
            try:
                if tensors is None:
                    value = _draw(rule, shape, rng)
                    if name == "word_emb" and pretrained:
                        _substitute_pretrained(value, pretrained, token_ids)
                else:
                    value = tensors[name]
                    if value.shape != shape:
                        raise ValueError(f"tensor {name!r} has shape {value.shape}, "
                                         f"expected {shape}")
                # rebinding frees a float64 draw before Parameter allocates its slots
                value = value.astype(config.dtype)
                self._params[name] = Parameter(name, value)
            except MemoryError as exc:
                raise ConfigError(f"tensor {name!r} of shape {shape} does not fit "
                                  f"in memory") from exc
        p = self._params
        self.embeddings = enc.EmbeddingTables(p["word_emb"], p["head_pos_emb"], p["tail_pos_emb"])
        self.lstm = enc.LstmParams(*(
            enc.LstmDirection(p[f"lstm_{d}_w_in"], p[f"lstm_{d}_w_rec"], p[f"lstm_{d}_bias"])
            for d in ("fwd", "bwd")))
        self.word_attn = wa.WordAttentionParams(p["word_attn_hidden"], p["word_attn_rows"],
                                                p["word_mlp_weight"], p["word_mlp_bias"])
        self.sent_attn = sa.SentAttentionParams(p["sent_attn_hidden"], p["sent_attn_rows"],
                                                p["class_weight"], p["class_bias"])

    def named_parameters(self) -> dict[str, Parameter]:
        return dict(self._params)

    def parameters(self) -> list[Parameter]:
        return list(self._params.values())

    def l2_parameters(self) -> list[Parameter]:
        """Weight matrices only, in table order: biases and embedding tables
        are not decayed."""
        table = expected_shapes(self.config, self.vocab_size, self.num_classes)
        return [self._params[name] for name, (_, rule) in table.items()
                if rule in ("uniform", "glorot_uniform")]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    # forward passes

    def instance_outputs(self, tape: Tape | None, instances: list[Instance],
                         dropout_rng: np.random.Generator | None = None,
                         ) -> tuple[Node, Node]:
        """Representations ``[mlp x n]`` and word attention ``[n x r x t_run]``
        up to the longest true length of n instances, in one batched pass."""
        cfg = self.config
        n = len(instances)
        embedded = enc.embed_batch(tape, instances, self.embeddings, cfg)
        lengths = np.array([inst.true_length for inst in instances])
        hidden = enc.bilstm_encode_batch(tape, embedded, lengths, self.lstm)   # [n x 2u x t_run]
        valid = (np.arange(hidden.shape[-1]) < lengths[:, None])[:, None, :]
        attn = wa.word_attention_matrix(tape, hidden, self.word_attn, valid_cols=valid)
        weighted = wa.weighted_sentence_matrix(tape, attn, hidden)
        reps = wa.flatten_project(tape, weighted, self.word_attn)
        if dropout_rng is not None and cfg.dropout > 0.0:
            # instance by instance, the same draws as one (mlp, 1) draw each
            keep = (dropout_rng.random((n, cfg.mlp_size)) >= cfg.dropout).T
            reps = ad.mul_const(tape, reps, keep.astype(cfg.dtype) / (1.0 - cfg.dropout))
        return reps, attn

    def bag_outputs(self, tape: Tape | None, representations: Node, sizes) -> BagForward:
        """Sentence attention and class probabilities of every bag at once; bag
        b owns the next ``sizes[b]`` columns of ``representations``."""
        membership = sa.stack_bag(sizes)
        attention = sa.sentence_attention_matrix(tape, representations, self.sent_attn,
                                                 membership)
        averaged = sa.average_attention(tape, attention)
        selection = sa.selection_representation(tape, averaged, representations)
        probabilities = sa.classify(tape, selection, self.sent_attn)
        return BagForward(attention, averaged, probabilities)

    def forward(self, tape: Tape | None, instance_lists: list[list[Instance]],
                dropout_rng: np.random.Generator | None = None) -> BagForward:
        """One batched pass over bags given as their lists of instances."""
        instances = [inst for group in instance_lists for inst in group]
        reps, attns = self.instance_outputs(tape, instances, dropout_rng)
        out = self.bag_outputs(tape, reps, [len(group) for group in instance_lists])
        out.word_attentions = attns
        return out

    def forward_bag(self, tape: Tape | None, bag: Bag) -> BagForward:
        return self.forward(tape, [bag.instances])

    def predict_bag(self, bag: Bag, instances: list[Instance] | None = None) -> np.ndarray:
        """Class probabilities without recording a tape."""
        return self.forward(None, [bag.instances if instances is None else instances]
                            ).probabilities.value[0]


def expected_shapes(config: ModelConfig, vocab_size: int, num_classes: int,
                    ) -> dict[str, tuple[tuple[int, int], str]]:
    """Every tensor's name, shape and init rule, in the order a fresh model
    draws them. The rules, applied by :func:`_draw`: ``normal`` rows from
    normal(0, 0.05), ``uniform`` from uniform(-0.1, 0.1), ``glorot_uniform``
    Glorot-uniform, ``zeros``, and ``lstm_bias``: zeros with the forget-gate
    slice at 1, so the forget gate starts open. Only the ``uniform`` and
    ``glorot_uniform`` weights are L2-decayed."""
    cfg = config
    input_dim = cfg.word_dim + cfg.position_dim
    u = cfg.hidden_size
    # distances clip into 2*max_distance + 1 buckets; the last row, the old
    # padding bucket, is never read but stays so every checkpoint loads
    buckets = 2 * cfg.max_distance + 2
    half = cfg.position_table_dim
    return {
        "word_emb": ((vocab_size, cfg.word_dim), "normal"),
        "head_pos_emb": ((buckets, half), "normal"),
        "tail_pos_emb": ((buckets, half), "normal"),
        "lstm_fwd_w_in": ((4 * u, input_dim), "uniform"),   # gate order i, f, g, o
        "lstm_fwd_w_rec": ((4 * u, u), "uniform"),
        "lstm_fwd_bias": ((4 * u, 1), "lstm_bias"),
        "lstm_bwd_w_in": ((4 * u, input_dim), "uniform"),
        "lstm_bwd_w_rec": ((4 * u, u), "uniform"),
        "lstm_bwd_bias": ((4 * u, 1), "lstm_bias"),
        "word_attn_hidden": ((cfg.word_attention_hidden, 2 * u), "glorot_uniform"),
        "word_attn_rows": ((cfg.word_attention_rows, cfg.word_attention_hidden), "glorot_uniform"),
        "word_mlp_weight": ((cfg.mlp_size, cfg.word_attention_rows * 2 * u), "glorot_uniform"),
        "word_mlp_bias": ((cfg.mlp_size, 1), "zeros"),
        "sent_attn_hidden": ((cfg.sent_attention_hidden, cfg.mlp_size), "glorot_uniform"),
        "sent_attn_rows": ((cfg.sent_attention_rows, cfg.sent_attention_hidden), "glorot_uniform"),
        "class_weight": ((num_classes, cfg.mlp_size), "glorot_uniform"),
        "class_bias": ((num_classes, 1), "zeros"),
    }


def _draw(rule: str, shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """A float64 initial value by one of :func:`expected_shapes`' rules."""
    if rule == "normal":
        return rng.normal(0.0, 0.05, size=shape)
    if rule == "uniform":
        return rng.uniform(-0.1, 0.1, size=shape)
    if rule == "glorot_uniform":
        limit = np.sqrt(6.0 / sum(shape))
        return rng.uniform(-limit, limit, size=shape)
    value = np.zeros(shape)
    if rule == "lstm_bias":
        u = shape[0] // 4
        value[u:2 * u] = 1.0
    return value


def _substitute_pretrained(word: np.ndarray, pretrained: dict[str, np.ndarray],
                           token_ids: dict[str, int] | None) -> None:
    """Overwrite the drawn rows of the tokens that have pretrained vectors."""
    if token_ids is None:
        raise ValueError("pretrained embeddings need the token -> id map")
    for token, vec in pretrained.items():
        if token in token_ids:
            if vec.shape != word.shape[1:]:
                raise ValueError(f"embedding for {token!r} has dim {vec.shape}, "
                                 f"expected ({word.shape[1]},)")
            word[token_ids[token]] = vec
