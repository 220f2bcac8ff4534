"""The full bag-level model: its parameter store and batched forward passes.

:func:`expected_shapes` lists every tensor once, with its shape and init
rule, in the order a fresh model draws them; fresh and checkpoint-loaded
models are both built by one walk over it. All entries live in one store,
a single ``[4 x P x 1]`` allocation of value, gradient and Adam's two
moments, with the L2-decayed weights as one leading slice. So
:meth:`Model.parameters` is one leaf, and zeroing, the gradient norm, the
L2 term and Adam each make one pass over it. Each named tensor is a view
into the store; the layer modules take them as the dataclasses they define.

Instances of a batch are encoded together, by one ``encoder.BatchPlan`` of
their true lengths that owns the packed layout; the encoder returns their
states as ``[n x 2u x t_run]``, up to the longest true length, token-major in
memory. Word attention then scores the real tokens of all instances at
once, as one ``[P x 2u]`` block picked out by the plan's mask, and sentence
attention runs once over all bags, each masked to its own instances; both
are the one ``autodiff.attention`` record. Each
layer function adds one tape record, and the loss one more, so a
``training.total_loss`` pass records 9, with or without dropout: the MLP's
record applies the dropout mask, and the selection's record averages the
sentence attention's rows.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import platform
from dataclasses import dataclass

import numpy as np

from . import encoder as enc
from . import sentence_attention as sa
from . import word_attention as wa
from .autodiff import Node, Parameter, Tape
from .config import ConfigError, ModelConfig
from .data import Bag, Instance

# glibc mallopt parameters (malloc.h) and the values a Model sets
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
M_ARENA_MAX = -8
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 1 << 30
ARENA_MAX = 1

DECAYED_RULES = ("uniform", "glorot_uniform")   # the init rules of the L2-decayed weights


@dataclass
class BagForward:
    """Everything a pass over B bags of N instances produces, for export."""

    attention: Node         # [B x rows x N] sentence-level attention
    averaged: Node          # [B x 1 x N] mean attention row per bag
    probabilities: Node     # [B x num_classes]
    word_attentions: Node | None = None   # [N x rows x longest true length], 0 on padding


class Model:
    """Holds all parameters and runs forward passes.

    ``decayed`` is a leaf view over the store's leading slice: the entries
    that L2 decays.

    Building the first Model in a process also sets the process's glibc
    malloc policy, once (see :func:`_keep_freed_memory`): each training step
    frees its tape's arrays, and by default glibc hands that memory back to
    the OS, so the next step faults every page in again."""

    def __init__(self, config: ModelConfig, vocab_size: int, num_classes: int,
                 rng: np.random.Generator | None = None,
                 tensors: dict[str, np.ndarray] | None = None) -> None:
        """The store has two sources: a fresh model draws each tensor from
        ``rng`` by its table rule, a loaded one takes it from ``tensors``, and
        a missing, unknown or misshapen one is a ValueError. Pretrained word
        vectors are written over the drawn rows by the caller
        (:func:`relattn.training.train`). Parameters too large to allocate are
        a ConfigError naming their entry count and dtype."""
        _keep_freed_memory()
        self.config = config
        self.num_classes = num_classes
        table = expected_shapes(config, vocab_size, num_classes)
        if tensors is None and rng is None:
            raise ValueError("need an rng to initialize a fresh model")
        if tensors is not None and tensors.keys() != table.keys():
            raise ValueError(f"checkpoint tensors do not match the model's: missing "
                             f"{sorted(table.keys() - tensors.keys())}, unknown "
                             f"{sorted(tensors.keys() - table.keys())}")
        sizes = {name: math.prod(shape) for name, (shape, _) in table.items()}
        total = sum(sizes.values())
        try:
            value, grad, m, s = np.zeros((4, total, 1), config.dtype)
        except (MemoryError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{total} parameter entries of {config.dtype} do not "
                              f"fit in memory") from exc
        self._store = Parameter("parameters", value, grad, m, s)
        # the L2-decayed tensors come first, as one leading slice
        layout = sorted(table, key=lambda name: table[name][1] not in DECAYED_RULES)
        starts = dict(zip(layout, itertools.accumulate([sizes[n] for n in layout], initial=0)))
        n_decayed = sum(sizes[n] for n, (_, rule) in table.items() if rule in DECAYED_RULES)
        self.decayed = Parameter.view("decayed", value[:n_decayed], grad[:n_decayed])
        self._params: dict[str, Parameter] = {}
        for name, (shape, rule) in table.items():
            part = slice(starts[name], starts[name] + sizes[name])
            view = Parameter.view(name, value[part].reshape(shape), grad[part].reshape(shape))
            if tensors is None:
                drawn = _draw(rule, shape, rng)
            else:
                drawn = tensors[name]
                if drawn.shape != shape:
                    raise ValueError(f"tensor {name!r} has shape {drawn.shape}, "
                                     f"expected {shape}")
            view.value[...] = drawn
            self._params[name] = view
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
        """Each tensor's view into the store, in table order."""
        return dict(self._params)

    def parameters(self) -> list[Parameter]:
        """The store: one ``[P x 1]`` leaf over every entry, with the Adam slots."""
        return [self._store]

    def zero_grad(self) -> None:
        self._store.zero_grad()

    # ------------------------------------------------------------------
    # forward passes

    def instance_outputs(self, tape: Tape | None, instances: list[Instance],
                         dropout_rng: np.random.Generator | None = None,
                         ) -> tuple[Node, Node]:
        """Representations ``[mlp x n]`` and word attention ``[n x r x t_run]``
        up to the longest true length of n instances, in one batched pass;
        word attention scores only the real tokens of the encoder's states."""
        cfg = self.config
        n = len(instances)
        plan = enc.BatchPlan.of([inst.true_length for inst in instances])
        if not plan.lengths.all():
            raise ValueError("an instance with no token ids has no representation")
        embedded = enc.embed_batch(tape, instances, plan, self.embeddings, cfg)
        hidden = enc.bilstm_encode_batch(tape, embedded, plan, self.lstm)   # [n x 2u x t_run]
        attn = wa.word_attention_matrix(tape, hidden, self.word_attn, valid_cols=plan.valid)
        weighted = wa.weighted_sentence_matrix(tape, attn, hidden)
        keep = None
        if dropout_rng is not None and cfg.dropout > 0.0:
            # instance by instance, the same draws as one (mlp, 1) draw each
            keep = (dropout_rng.random((n, cfg.mlp_size)) >= cfg.dropout).T
            keep = keep.astype(cfg.dtype) / (1.0 - cfg.dropout)
        return wa.flatten_project(tape, weighted, self.word_attn, keep), attn

    def bag_outputs(self, tape: Tape | None, representations: Node, sizes) -> BagForward:
        """Sentence attention and class probabilities of every bag at once; bag
        b owns the next ``sizes[b]`` columns of ``representations``."""
        membership = sa.stack_bag(sizes)
        attention = sa.sentence_attention_matrix(tape, representations, self.sent_attn,
                                                 membership)
        selection = sa.selection_representation(tape, attention, representations)
        probabilities = sa.classify(tape, selection, self.sent_attn)
        return BagForward(attention, Node(sa.average_attention(attention.value)), probabilities)

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

    def predict_bag(self, bag: Bag) -> np.ndarray:
        """Class probabilities without recording a tape."""
        return self.forward(None, [bag.instances]).probabilities.value[0]


@functools.cache
def _keep_freed_memory() -> None:
    """Keep memory that a step frees mapped, so the next step reuses it.

    Under glibc, sets ``M_MMAP_THRESHOLD`` to 32 MiB, ``M_TRIM_THRESHOLD``
    to 1 GiB and ``M_ARENA_MAX`` to 1 for the whole process: blocks under
    32 MiB come from the heap, not from their own mmap, and the heap top is
    not released after every step. Fixing the mmap threshold also stops it
    from following the size of the last block freed. One arena lets the
    worker thread of ``autodiff.halves`` reuse what the calling thread freed,
    and the other way round, instead of each keeping a heap of its own. The
    cost is a process that holds its largest step's freed memory. Does
    nothing under any other C library. Cached, so only the first call acts."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    mallopt(M_ARENA_MAX, ARENA_MAX)


def expected_shapes(config: ModelConfig, vocab_size: int, num_classes: int,
                    ) -> dict[str, tuple[tuple[int, int], str]]:
    """Every tensor's name, shape and init rule, in the order a fresh model
    draws them. The rules, applied by :func:`_draw`: ``normal`` rows from
    normal(0, 0.05), ``uniform`` from uniform(-0.1, 0.1), ``glorot_uniform``
    Glorot-uniform, ``zeros``, and ``lstm_bias``: zeros with the forget-gate
    slice at 1, so the forget gate starts open. Only the weights of the
    :data:`DECAYED_RULES` are L2-decayed."""
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

