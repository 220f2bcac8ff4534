"""The full bag-level model: encoder, word attention, sentence attention.

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
from .config import ModelConfig
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
        config.validate()
        self.config = config
        self.vocab_size = vocab_size
        self.num_classes = num_classes
        if tensors is None:
            if rng is None:
                raise ValueError("need an rng to initialize a fresh model")
            self.embeddings = enc.init_embedding_tables(vocab_size, config, rng,
                                                        pretrained, token_ids)
            self.lstm = enc.init_lstm_params(config, rng)
            self.word_attn = wa.init_word_attention(config, rng)
            self.sent_attn = sa.init_sent_attention(config, num_classes, rng)
        else:
            self._load_tensors(tensors)

    def _load_tensors(self, tensors: dict[str, np.ndarray]) -> None:
        cfg = self.config
        expected = expected_shapes(cfg, self.vocab_size, self.num_classes)
        missing = sorted(set(expected) - set(tensors))
        if missing:
            raise ValueError(f"checkpoint is missing tensors: {missing}")
        params: dict[str, Parameter] = {}
        for name, shape in expected.items():
            arr = tensors[name]
            if arr.shape != shape:
                raise ValueError(f"tensor {name!r} has shape {arr.shape}, expected {shape}")
            params[name] = Parameter(name, arr.astype(cfg.dtype))
        self.embeddings = enc.EmbeddingTables(params["word_emb"], params["head_pos_emb"],
                                              params["tail_pos_emb"])
        self.lstm = enc.LstmParams(
            fwd=enc.LstmDirection(params["lstm_fwd_w_in"], params["lstm_fwd_w_rec"],
                                  params["lstm_fwd_bias"]),
            bwd=enc.LstmDirection(params["lstm_bwd_w_in"], params["lstm_bwd_w_rec"],
                                  params["lstm_bwd_bias"]),
        )
        self.word_attn = wa.WordAttentionParams(params["word_attn_hidden"],
                                                params["word_attn_rows"],
                                                params["word_mlp_weight"],
                                                params["word_mlp_bias"])
        self.sent_attn = sa.SentAttentionParams(params["sent_attn_hidden"],
                                                params["sent_attn_rows"],
                                                params["class_weight"],
                                                params["class_bias"])

    def named_parameters(self) -> dict[str, Parameter]:
        ps = [
            self.embeddings.word, self.embeddings.head_position, self.embeddings.tail_position,
            self.lstm.fwd.w_in, self.lstm.fwd.w_rec, self.lstm.fwd.bias,
            self.lstm.bwd.w_in, self.lstm.bwd.w_rec, self.lstm.bwd.bias,
            self.word_attn.attn_hidden, self.word_attn.attn_rows,
            self.word_attn.mlp_weight, self.word_attn.mlp_bias,
            self.sent_attn.attn_hidden, self.sent_attn.attn_rows,
            self.sent_attn.class_weight, self.sent_attn.class_bias,
        ]
        return {p.name: p for p in ps}

    def parameters(self) -> list[Parameter]:
        return list(self.named_parameters().values())

    def l2_parameters(self) -> list[Parameter]:
        """Weight matrices only: biases and embedding tables are not decayed."""
        return [
            self.lstm.fwd.w_in, self.lstm.fwd.w_rec,
            self.lstm.bwd.w_in, self.lstm.bwd.w_rec,
            self.word_attn.attn_hidden, self.word_attn.attn_rows, self.word_attn.mlp_weight,
            self.sent_attn.attn_hidden, self.sent_attn.attn_rows, self.sent_attn.class_weight,
        ]

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


def expected_shapes(config: ModelConfig, vocab_size: int,
                    num_classes: int) -> dict[str, tuple[int, int]]:
    cfg = config
    input_dim = cfg.word_dim + cfg.position_dim
    u = cfg.hidden_size
    buckets = 2 * cfg.max_distance + 2
    half = cfg.position_table_dim
    return {
        "word_emb": (vocab_size, cfg.word_dim),
        "head_pos_emb": (buckets, half),
        "tail_pos_emb": (buckets, half),
        "lstm_fwd_w_in": (4 * u, input_dim),
        "lstm_fwd_w_rec": (4 * u, u),
        "lstm_fwd_bias": (4 * u, 1),
        "lstm_bwd_w_in": (4 * u, input_dim),
        "lstm_bwd_w_rec": (4 * u, u),
        "lstm_bwd_bias": (4 * u, 1),
        "word_attn_hidden": (cfg.word_attention_hidden, 2 * u),
        "word_attn_rows": (cfg.word_attention_rows, cfg.word_attention_hidden),
        "word_mlp_weight": (cfg.mlp_size, cfg.word_attention_rows * 2 * u),
        "word_mlp_bias": (cfg.mlp_size, 1),
        "sent_attn_hidden": (cfg.sent_attention_hidden, cfg.mlp_size),
        "sent_attn_rows": (cfg.sent_attention_rows, cfg.sent_attention_hidden),
        "class_weight": (num_classes, cfg.mlp_size),
        "class_bias": (num_classes, 1),
    }
