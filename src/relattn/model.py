"""The full bag-level model: encoder, word attention, sentence attention.

Instances of a batch are encoded together (time-major lockstep through the
BiLSTM), then attention and classification run per instance / per bag.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Everything the bag-level pass produces, kept for inspection/export."""

    stacked: Node        # [mlp_size x J] instance representations
    attention: Node      # [rows x J] sentence-level attention
    averaged: Node       # [1 x J] mean attention row
    selection: Node      # [mlp_size x 1] weighted bag representation
    probabilities: Node  # [1 x num_classes]
    word_attentions: list[Node] = field(default_factory=list)


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
        u = cfg.hidden_size
        self.embeddings = enc.EmbeddingTables(params["word_emb"], params["head_pos_emb"],
                                              params["tail_pos_emb"])
        self.lstm = enc.LstmParams(
            fwd=enc.LstmDirection(params["lstm_fwd_w_in"], params["lstm_fwd_w_rec"],
                                  params["lstm_fwd_bias"], u),
            bwd=enc.LstmDirection(params["lstm_bwd_w_in"], params["lstm_bwd_w_rec"],
                                  params["lstm_bwd_bias"], u),
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
                         ) -> tuple[list[Node], list[Node], list[Node]]:
        """Per-instance representations, attention matrices, and penalties."""
        cfg = self.config
        n = len(instances)
        t_steps = cfg.time_steps
        embedded = enc.embed_batch(tape, instances, self.embeddings, cfg)
        lengths = [inst.true_length for inst in instances]
        hidden_all = enc.bilstm_encode_batch(tape, embedded, lengths, self.lstm)
        reps, attns, penalties = [], [], []
        for j, inst in enumerate(instances):
            hidden = ad.take_cols(tape, hidden_all, enc.instance_columns(n, t_steps, j))
            valid = np.arange(t_steps) < inst.true_length
            attn = wa.word_attention_matrix(tape, hidden, self.word_attn, valid_cols=valid)
            weighted = wa.weighted_sentence_matrix(tape, attn, hidden)
            rep = wa.flatten_project(tape, weighted, self.word_attn)
            if dropout_rng is not None and cfg.dropout > 0.0:
                keep = (dropout_rng.random(rep.shape) >= cfg.dropout)
                rep = ad.mul_const(tape, rep, keep.astype(cfg.dtype) / (1.0 - cfg.dropout))
            reps.append(rep)
            attns.append(attn)
            penalties.append(wa.attention_penalty(tape, attn))
        return reps, attns, penalties

    def bag_outputs(self, tape: Tape | None, representations: list[Node]) -> BagForward:
        stacked = sa.stack_bag(tape, representations)
        attention = sa.sentence_attention_matrix(tape, stacked, self.sent_attn)
        averaged = sa.average_attention(tape, attention)
        selection = sa.selection_representation(tape, averaged, stacked)
        probabilities = sa.classify(tape, selection, self.sent_attn)
        return BagForward(stacked, attention, averaged, selection, probabilities)

    def forward_bag(self, tape: Tape | None, bag: Bag) -> BagForward:
        reps, attns, _ = self.instance_outputs(tape, bag.instances)
        out = self.bag_outputs(tape, reps)
        out.word_attentions = attns
        return out

    def predict_bag(self, bag: Bag, instances: list[Instance] | None = None) -> np.ndarray:
        """Class probabilities without recording a tape."""
        if instances is None:
            instances = bag.instances
        reps, _, _ = self.instance_outputs(None, instances)
        return self.bag_outputs(None, reps).probabilities.value.reshape(-1)


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
