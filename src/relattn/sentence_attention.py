"""Structured sentence-level attention over bags of instance representations.

The word level's structured attention, applied across the instances of a
bag by the same function and the same ``autodiff.attention`` record:
attention rows are averaged into a single selection weighting, which mixes
the instance representations into one vector for relation classification.
All bags of a batch run at once over its ``[mlp x N]`` representations,
read as ``N`` rows, each bag's rows masked to its own columns; the masks
of :func:`stack_bag` are disjoint, as the record requires. Each function
adds one tape record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import word_attention as wa
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


# the word level's function under a name of its own, so each level can be
# wrapped and counted apart
sentence_attention_matrix = wa.word_attention_matrix


def average_attention(tape: Tape | None, attention: Node) -> Node:
    """Mean of each bag's attention rows: still a distribution over instances."""
    return ad.mean_rows(tape, attention)


def selection_representation(tape: Tape | None, averaged: Node, representations: Node) -> Node:
    """Attention-weighted sum of each bag's representations: ``[bags x mlp]``.
    One record; backward's two gradients are one ``autodiff.grad_pair``."""
    reps = representations.value
    weights = averaged.value.reshape(-1, reps.shape[1])
    out = Node(ad._product(weights, reps.T))
    if tape is not None:
        def bwd() -> None:
            g = out.grad
            ad.grad_pair(lambda: ad._accum(averaged, (g @ reps).reshape(averaged.shape)),
                         lambda: ad._accum(representations, (weights.T @ g).T),
                         g, weights.shape[1])
        tape.record(out, bwd)
    return out


def classify(tape: Tape | None, selection: Node, params: SentAttentionParams) -> Node:
    """Probability rows ``softmax(tanh(S) Wᵀ + bᵀ)`` ``[bags x classes]`` from
    the ``[bags x mlp]`` selections. One record; backward's gradients into
    ``S`` and ``W`` are one ``autodiff.grad_pair``.

    The class axis stays contiguous: numpy sums a strided float32 axis
    sequentially, not pairwise, which can miss the loss's 1e-6 check.
    """
    weight, bias = params.class_weight, params.class_bias
    t = np.tanh(selection.value)
    logits = ad._product(t, weight.value.T)
    logits += bias.value.T
    p = ad._softmax(logits)
    out = Node(p)
    if tape is not None:
        def bwd() -> None:
            dl = ad._softmax_grad(p, out.grad)
            ad._accum(bias, dl.sum(axis=0, keepdims=True).T)

            def into_selection() -> None:
                ds = dl @ weight.value
                ds *= 1.0 - t * t
                ad._accum(selection, ds)
            ad.grad_pair(into_selection, lambda: ad._accum(weight, (t.T @ dl).T),
                         dl, t.shape[1])
        tape.record(out, bwd)
    return out
