"""Sentence encoder: word + relative-position embeddings into a BiLSTM.

Sequences are laid out time-major when several instances are encoded at
once: the embedded batch has one column per (time step, instance) pair with
time varying slowest, so every LSTM step is a single column slice across the
whole batch. The BiLSTM is always masked by true length: both directions
stop at the batch's longest sentence, and every padded column of the output
is exactly zero. Each direction computes its input projection ``W_in·X +
bias`` for all steps in one matmul, and each step then adds the recurrent
product and runs one fused :func:`autodiff.lstm_cell`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Parameter, Tape
from .config import ModelConfig
from .data import Instance, relative_positions


@dataclass
class EmbeddingTables:
    word: Parameter           # [vocab x word_dim]
    head_position: Parameter  # [2*max_distance + 2 x position_dim/2]
    tail_position: Parameter


@dataclass
class LstmDirection:
    w_in: Parameter    # [4u x input_dim], gate order i, f, g, o
    w_rec: Parameter   # [4u x u]
    bias: Parameter    # [4u x 1], forget slice initialized to 1
    hidden_size: int


@dataclass
class LstmParams:
    fwd: LstmDirection
    bwd: LstmDirection


def init_embedding_tables(vocab_size: int, config: ModelConfig,
                          rng: np.random.Generator,
                          pretrained: dict[str, np.ndarray] | None = None,
                          token_ids: dict[str, int] | None = None) -> EmbeddingTables:
    """Embedding rows drawn from normal(0, 0.05); pretrained rows substituted."""
    dtype = config.dtype
    word = rng.normal(0.0, 0.05, size=(vocab_size, config.word_dim))
    if pretrained:
        if token_ids is None:
            raise ValueError("pretrained embeddings need the token -> id map")
        for token, vec in pretrained.items():
            if token in token_ids:
                if vec.shape != (config.word_dim,):
                    raise ValueError(f"embedding for {token!r} has dim {vec.shape}, "
                                     f"expected ({config.word_dim},)")
                word[token_ids[token]] = vec
    buckets = 2 * config.max_distance + 2
    half = config.position_table_dim
    return EmbeddingTables(
        word=Parameter("word_emb", word.astype(dtype)),
        head_position=Parameter("head_pos_emb",
                                rng.normal(0.0, 0.05, size=(buckets, half)).astype(dtype)),
        tail_position=Parameter("tail_pos_emb",
                                rng.normal(0.0, 0.05, size=(buckets, half)).astype(dtype)),
    )


def _init_direction(name: str, input_dim: int, u: int, rng: np.random.Generator,
                    dtype: np.dtype) -> LstmDirection:
    w_in = rng.uniform(-0.1, 0.1, size=(4 * u, input_dim))
    w_rec = rng.uniform(-0.1, 0.1, size=(4 * u, u))
    bias = np.zeros((4 * u, 1))
    bias[u:2 * u] = 1.0   # forget gate starts open
    return LstmDirection(
        w_in=Parameter(f"{name}_w_in", w_in.astype(dtype)),
        w_rec=Parameter(f"{name}_w_rec", w_rec.astype(dtype)),
        bias=Parameter(f"{name}_bias", bias.astype(dtype)),
        hidden_size=u,
    )


def init_lstm_params(config: ModelConfig, rng: np.random.Generator) -> LstmParams:
    input_dim = config.word_dim + config.position_dim
    u = config.hidden_size
    return LstmParams(
        fwd=_init_direction("lstm_fwd", input_dim, u, rng, config.dtype),
        bwd=_init_direction("lstm_bwd", input_dim, u, rng, config.dtype),
    )


def embed_batch(tape: Tape | None, instances: list[Instance], tables: EmbeddingTables,
                config: ModelConfig) -> Node:
    """Embed several instances time-major: column t*n + j is step t of instance j."""
    n = len(instances)
    t_steps = len(instances[0].token_ids)
    word_ids = np.stack([inst.token_ids for inst in instances])          # [n x T]
    head_ids = np.empty((n, t_steps), dtype=np.int64)
    tail_ids = np.empty((n, t_steps), dtype=np.int64)
    for j, inst in enumerate(instances):
        head_ids[j], tail_ids[j] = relative_positions(inst, config.max_distance)

    parts = []
    for table, ids in ((tables.word, word_ids),
                       (tables.head_position, head_ids),
                       (tables.tail_position, tail_ids)):
        rows = ad.take_rows(tape, table, ids.T.ravel())   # [(T*n) x dim], time-major
        parts.append(ad.transpose(tape, rows))
    return ad.vconcat(tape, parts)                        # [(word+pos dims) x T*n]


def lstm_step(tape: Tape | None, x: Node, h_prev: Node | None, c_prev: Node,
              direction: LstmDirection) -> tuple[Node, Node]:
    """One LSTM cell update on the projected step input ``x = W_in·x_t + bias``.

    Columns of x are independent batch lanes; only the recurrent product is
    computed here, then one fused cell. ``h_prev=None`` is the all-zero
    initial state, whose recurrent product is skipped.
    """
    pre = x if h_prev is None else ad.add(tape, x, ad.matmul(tape, direction.w_rec, h_prev))
    return ad.lstm_cell(tape, pre, c_prev)


def _run_direction(tape: Tape | None, embedded: Node, lengths: np.ndarray,
                   direction: LstmDirection, reverse: bool) -> list[Node]:
    """States of one direction for steps 0..max(lengths)-1, in time order.

    The input projection of every step is one matmul over the columns that
    run. After each step the lanes past their true length are multiplied by
    0, so they hold the zero state: padding never reaches a real output, and
    the reverse direction enters every lane at its last real token from zero.
    """
    n = lengths.size
    dtype = embedded.value.dtype
    t_run = int(lengths.max())
    projected = ad.add(tape, ad.matmul(tape, direction.w_in,
                                       ad.slice_cols(tape, embedded, 0, t_run * n)),
                       direction.bias)
    h, c = None, Node(np.zeros((direction.hidden_size, n), dtype=dtype))
    steps = range(t_run)
    states = []
    for t in (reversed(steps) if reverse else steps):
        x = ad.slice_cols(tape, projected, t * n, (t + 1) * n)
        h, c = lstm_step(tape, x, h, c, direction)
        active = lengths > t
        if not active.all():
            keep = active.astype(dtype)
            h, c = ad.mul_const(tape, h, keep), ad.mul_const(tape, c, keep)
        states.append(h)
    return states[::-1] if reverse else states


def bilstm_encode_batch(tape: Tape | None, embedded: Node, lengths,
                        params: LstmParams) -> Node:
    """Bidirectional encoding of a time-major embedded batch, masked by length.

    Both directions run only to the batch's longest true length; every column
    of a padded position is exactly zero, and the output keeps its
    ``[2u x T*n]`` shape.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    n = lengths.size
    total = embedded.shape[1]
    if total % n != 0:
        raise ad.ShapeError(f"embedded width {total} is not a multiple of batch size {n}")
    u = params.fwd.hidden_size
    tail = [Node(np.zeros((u, total - int(lengths.max()) * n), dtype=embedded.value.dtype))]
    fwd = _run_direction(tape, embedded, lengths, params.fwd, reverse=False)
    bwd = _run_direction(tape, embedded, lengths, params.bwd, reverse=True)
    return ad.vconcat(tape, [ad.hconcat(tape, fwd + tail), ad.hconcat(tape, bwd + tail)])

