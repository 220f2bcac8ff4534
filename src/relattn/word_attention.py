"""Structured word-level self-attention over the encoder states.

A learned matrix of attention rows, each a distribution over token
positions, turns the encoder output into a fixed number of differently
focused sentence views; the orthogonality penalty pushes those rows apart.
Each layer function takes one instance's ``[2u x T]`` states or a batch
``[n x 2u x T]`` and adds one tape record. The penalty adds none:
``training.objective`` records it with the other loss terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Parameter, Tape


@dataclass
class WordAttentionParams:
    attn_hidden: Parameter   # [attention_hidden x 2u]
    attn_rows: Parameter     # [rows x attention_hidden]
    mlp_weight: Parameter    # [mlp_size x rows*2u]
    mlp_bias: Parameter      # [mlp_size x 1]


def word_attention_matrix(tape: Tape | None, hidden: Node, params: WordAttentionParams,
                          valid_cols: np.ndarray | None = None) -> Node:
    """Structured self-attention ``softmax(W2 tanh(W1 X))`` of both levels
    (Lin et al. 2017, arXiv:1703.03130), one ``autodiff.attention`` record;
    each row sums to 1 over the columns ``valid_cols`` keeps, every column
    without a mask. ``W1`` and ``W2`` are ``params.attn_hidden`` and
    ``params.attn_rows``.

    Word level: ``X`` is ``[(n x) 2u x T]`` encoder states, the result
    ``[(n x) r x T]``, and ``valid_cols`` (``[T]``, or ``[n x 1 x T]`` for a
    batch) masks padded positions out. Sentence level, as
    ``sentence_attention_matrix``: ``X`` is ``[mlp x N]`` instance
    representations, the result ``[bags x r x N]``, and ``valid_cols`` a
    ``stack_bag`` mask.

    A pass-through, kept by name: ``bench/tracing.py`` times and counts each
    level by wrapping this name and its alias, and its gate test drops the
    mask through ``valid_cols=None``, until in-package layer spans replace
    that patching (ROADMAP item 9).
    """
    return ad.attention(tape, hidden, params.attn_hidden, params.attn_rows, valid_cols)


def weighted_sentence_matrix(tape: Tape | None, attention: Node, hidden: Node) -> Node:
    """One weighted combination of encoder states per attention row: ``[(n x) r x 2u]``.
    One record; backward's two gradients are one ``autodiff.grad_pair``. The
    first gradient into token-major states (the encoder's layout) is written
    once, by the product itself, in the states' layout; any other is added."""
    out = Node(ad._product(attention.value, np.swapaxes(hidden.value, -1, -2)))
    if tape is not None:
        def into_hidden(g: np.ndarray) -> None:
            at = np.swapaxes(attention.value, -1, -2)
            if hidden.grad is None and np.swapaxes(hidden.value, -1, -2).flags.c_contiguous:
                hidden.grad = np.empty_like(hidden.value)
                np.matmul(at, g, out=np.swapaxes(hidden.grad, -1, -2))
            else:
                ad._accum(hidden, np.swapaxes(at @ g, -1, -2))

        def bwd() -> None:
            g = out.grad
            ad.grad_pair(lambda: ad._accum(attention, g @ hidden.value),
                         lambda: into_hidden(g), g, attention.shape[-1])
        tape.record(out, bwd)
    return out


def flatten_project(tape: Tape | None, weighted: Node, params: WordAttentionParams) -> Node:
    """Concatenate each instance's weighted rows and project them through the
    ReLU MLP, one column of ``[mlp x n]`` per instance. One record; backward's
    weight gradient, by row blocks, and input gradient ``dZᵀ·W`` are one
    ``autodiff.grad_pair``."""
    weight, bias = params.mlp_weight, params.mlp_bias
    rows, cols = weighted.shape[-2:]
    flat = weighted.value.reshape(-1, rows * cols).T   # row-major: row blocks stay contiguous
    y = ad._product(weight.value, flat)
    y += bias.value
    np.maximum(y, 0.0, out=y)
    out = Node(y)
    if tape is not None:
        def bwd() -> None:
            g = out.grad * (y > 0)   # subgradient 0 at exactly 0
            ad._accum(bias, g.sum(axis=1, keepdims=True))
            ad.grad_pair(lambda: ad._weight_grad(weight, g, flat),
                         lambda: ad._accum(weighted, (g.T @ weight.value).reshape(weighted.shape)),
                         g, weight.shape[1])
        tape.record(out, bwd)
    return out


def attention_penalty(attention: np.ndarray) -> tuple[np.ndarray, Callable[[float], np.ndarray]]:
    """``‖AAᵀ − I‖²`` of each matrix of attention rows, summed over a batch:
    their squared Frobenius distance from orthonormality (Lin et al. 2017).
    Returns the value, a ``[1 x 1]`` array of ``attention``'s dtype, and its
    gradient: a function of the value's gradient ``g`` that returns
    ``4g·S·A``, with ``S = AAᵀ − I``."""
    s = attention @ np.swapaxes(attention, -1, -2)
    s -= np.eye(s.shape[-1], dtype=s.dtype)
    return (np.array([[(s * s).sum()]], dtype=attention.dtype),
            lambda g: (4.0 * g) * (s @ attention))
