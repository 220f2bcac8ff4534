"""Structured sentence-level attention over bags of instance representations.

The same structured-attention shape as the word level, applied across the
instances of a bag: attention rows are averaged into a single selection
weighting, which mixes the instance representations into one vector for
relation classification. All bags of a batch run at once over its
``[mlp x N]`` representations, each bag's rows masked to its own columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Parameter, Tape


@dataclass
class SentAttentionParams:
    attn_hidden: Parameter   # [attention_hidden x mlp_size]
    attn_rows: Parameter     # [rows x attention_hidden]
    class_weight: Parameter  # [num_classes x mlp_size]
    class_bias: Parameter    # [num_classes x 1]


def stack_bag(sizes) -> np.ndarray:
    """Membership mask ``[bags x 1 x N]``: bag b owns the next ``sizes[b]`` columns."""
    if len(sizes) == 0 or min(sizes) < 1:
        raise ValueError(f"every bag needs at least one instance, got sizes {list(sizes)}")
    bags = np.arange(len(sizes))
    return np.repeat(bags, sizes) == bags[:, None, None]


def sentence_attention_matrix(tape: Tape | None, representations: Node,
                              params: SentAttentionParams,
                              membership: np.ndarray | None = None) -> Node:
    """Attention rows over instances, ``[r x N]`` for one bag or ``[bags x r x N]``
    under a :func:`stack_bag` mask; each row sums to 1."""
    logits = ad.matmul(tape, params.attn_rows,
                       ad.tanh_map(tape, ad.matmul(tape, params.attn_hidden, representations)))
    return ad.row_softmax(tape, logits, valid_cols=membership)


def average_attention(tape: Tape | None, attention: Node) -> Node:
    """Mean of each bag's attention rows: still a distribution over instances."""
    return ad.mean_rows(tape, attention)


def selection_representation(tape: Tape | None, averaged: Node, representations: Node) -> Node:
    """Attention-weighted sum of each bag's representations: ``[bags x mlp]``."""
    weights = ad.reshape(tape, averaged, -1, representations.shape[1])
    return ad.matmul(tape, weights, ad.transpose(tape, representations))


def classify(tape: Tape | None, selection: Node, params: SentAttentionParams) -> Node:
    """Probability rows ``[bags x classes]`` from the ``[bags x mlp]`` selections.

    The class axis stays contiguous: numpy sums a strided float32 axis
    sequentially, not pairwise, which can miss cross_entropy's 1e-6 check.
    """
    logits = ad.add(tape, ad.matmul(tape, ad.tanh_map(tape, selection),
                                    ad.transpose(tape, params.class_weight)),
                    ad.transpose(tape, params.class_bias))
    return ad.row_softmax(tape, logits)
