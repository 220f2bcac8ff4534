"""Sentence encoder: word + relative-position embeddings into a BiLSTM.

Sequences are laid out time-major when several instances are encoded at
once: the embedded batch has one column per (time step, instance) pair with
time varying slowest. The BiLSTM computes real tokens only. Its lanes are
sorted longest first, so the lanes still running at step t are a prefix of
width ``#(lengths > t)``; one column gather packs the real tokens step by
step, each direction projects them with one matmul ``W_in·X + bias``, and
each step adds the recurrent product and runs one fused
:func:`autodiff.lstm_cell` on its prefix. One more gather puts the states
back at their time-major columns, and every padded column is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Parameter, Tape
from .config import ModelConfig
from .data import Instance, position_buckets


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
    t_steps = len(instances[0].token_ids)
    word_ids = np.stack([inst.token_ids for inst in instances])          # [n x T]
    lengths = [inst.true_length for inst in instances]
    position_ids = [position_buckets(pos, lengths, t_steps, config.max_distance)   # [n x T]
                    for pos in ([inst.head_pos for inst in instances],
                                [inst.tail_pos for inst in instances])]

    parts = []
    for table, ids in zip((tables.word, tables.head_position, tables.tail_position),
                          [word_ids] + position_ids):
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


def _run_direction(tape: Tape | None, packed: Node, widths: list[int],
                   direction: LstmDirection, reverse: bool) -> list[Node]:
    """States of one direction for steps 0..len(widths)-1, in time order.

    ``packed`` holds the real tokens only, step by step, with step t's
    ``widths[t]`` active lanes first. The input projection of every token is
    one matmul. Going forward, ``h`` and ``c`` drop the lanes that have
    ended; going backward, zero columns are appended for the lanes that
    start, so every lane enters at its last real token from the zero state.
    """
    projected = ad.add(tape, ad.matmul(tape, direction.w_in, packed), direction.bias)
    offsets = np.concatenate([[0], np.cumsum(widths)]).tolist()
    u, dtype = direction.hidden_size, packed.value.dtype
    h, c = None, None
    steps = range(len(widths))
    states = []
    for t in (reversed(steps) if reverse else steps):
        k = widths[t]
        if c is None:
            c = Node(np.zeros((u, k), dtype=dtype))
        elif k < c.shape[1]:
            h, c = ad.slice_cols(tape, h, 0, k), ad.slice_cols(tape, c, 0, k)
        elif k > c.shape[1]:
            zeros = Node(np.zeros((u, k - c.shape[1]), dtype=dtype))
            h, c = ad.hconcat(tape, [h, zeros]), ad.hconcat(tape, [c, zeros])
        x = ad.slice_cols(tape, projected, offsets[t], offsets[t + 1])
        h, c = lstm_step(tape, x, h, c, direction)
        states.append(h)
    return states[::-1] if reverse else states


def bilstm_encode_batch(tape: Tape | None, embedded: Node, lengths,
                        params: LstmParams) -> Node:
    """Bidirectional encoding of a time-major embedded batch, packed by length.

    Only real tokens are computed: both directions run to the batch's longest
    true length over lanes sorted longest first. Every column of a padded
    position is exactly zero, and the output keeps its ``[2u x T*n]`` shape.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    n = lengths.size
    total = embedded.shape[1]
    if total % n != 0:
        raise ad.ShapeError(f"embedded width {total} is not a multiple of batch size {n}")
    order = np.argsort(-lengths, kind="stable")
    steps = np.arange(lengths.max())[:, None]
    active = steps < lengths[order]                   # [t_run x n], each row a prefix
    real = (steps * n + order)[active]                # time-major column of each token
    packed = ad.take_cols(tape, embedded, real)
    widths = active.sum(axis=1).tolist()
    fwd = _run_direction(tape, packed, widths, params.fwd, reverse=False)
    bwd = _run_direction(tape, packed, widths, params.bwd, reverse=True)
    pad = np.flatnonzero(np.arange(total // n)[:, None] >= lengths)   # time-major
    zeros = [Node(np.zeros((params.fwd.hidden_size, pad.size), dtype=embedded.value.dtype))]
    states = ad.vconcat(tape, [ad.hconcat(tape, fwd + zeros), ad.hconcat(tape, bwd + zeros)])
    # one permutation moves each state to its time-major column, padding to zeros
    where = np.empty(total, dtype=np.intp)
    where[np.concatenate([real, pad])] = np.arange(total)
    return ad.take_cols(tape, states, where)
