"""Structured word-level self-attention over the encoder states.

A learned matrix of attention rows, each a distribution over token
positions, turns the encoder output into a fixed number of differently
focused sentence views; the orthogonality penalty pushes those rows apart.
Each function takes one instance's ``[2u x T]`` states or a batch ``[n x 2u x T]``.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    (Lin et al. 2017, arXiv:1703.03130); each row sums to 1 over the columns
    ``valid_cols`` keeps. ``W1`` and ``W2`` are ``params.attn_hidden`` and ``params.attn_rows``.

    Word level: ``X`` is ``[(n x) 2u x T]`` encoder states, the result
    ``[(n x) r x T]``, and ``valid_cols`` (``[T]`` or ``[n x 1 x T]``) masks
    padded positions out. Sentence level, as ``sentence_attention_matrix``:
    ``X`` is ``[mlp x N]`` instance representations, the result
    ``[(bags x) r x N]``, and ``valid_cols`` a ``stack_bag`` mask.
    """
    logits = ad.matmul(tape, params.attn_rows,
                       ad.tanh_map(tape, ad.matmul(tape, params.attn_hidden, hidden)))
    return ad.row_softmax(tape, logits, valid_cols=valid_cols)


def weighted_sentence_matrix(tape: Tape | None, attention: Node, hidden: Node) -> Node:
    """One weighted combination of encoder states per attention row: ``[(n x) r x 2u]``."""
    return ad.matmul(tape, attention, ad.transpose(tape, hidden))


def flatten_project(tape: Tape | None, weighted: Node, params: WordAttentionParams) -> Node:
    """Concatenate each instance's weighted rows and project them through the
    ReLU MLP, one column of ``[mlp x n]`` per instance."""
    rows, cols = weighted.shape[-2:]
    # row-major: row blocks stay contiguous
    flat = ad.transpose(tape, ad.reshape(tape, weighted, -1, rows * cols))
    return ad.relu_map(tape, ad.add(tape, ad.matmul(tape, params.mlp_weight, flat),
                                    params.mlp_bias))


def attention_penalty(tape: Tape | None, attention: Node) -> Node:
    """Squared Frobenius distance of the attention rows from orthonormality."""
    return ad.frobenius_penalty(tape, attention)
