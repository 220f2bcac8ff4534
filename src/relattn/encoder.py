"""Sentence encoder: word + relative-position embeddings into a BiLSTM.

A batch is packed once, by :func:`_pack`: lanes are sorted longest first,
so the lanes still running at step t are a prefix of width
``#(lengths > t)``, and the real tokens are laid out step by step. The
embedding gathers only the real tokens' table rows, in that packed order,
into one token-major ``[P x D]`` (``P = sum(lengths)``) and one tape record.
The BiLSTM is one more record and one recurrence, :func:`_run_direction`,
run over the packed rows and, for the reverse direction, over the rows
mirrored within each lane. It projects every token with one matmul and runs
:func:`lstm_step` once per step; the states are scattered into the
word-attention input ``[n x 2u x t_run]``, every padded position exactly
zero. Its backward pass is hand-written BPTT, one direction after the other.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

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
    bias: Parameter    # [4u x 1]; model.expected_shapes starts the forget slice at 1


@dataclass
class LstmParams:
    fwd: LstmDirection
    bwd: LstmDirection


def _pack(lengths) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Lane and step of each real token, listed step by step over the lanes
    sorted longest first (a stable sort), and how many lanes run at each step:
    at step t, the first ``widths[t]`` sorted lanes."""
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    steps, ranks = np.nonzero(np.arange(lengths.max())[:, None] < lengths[order])
    return order[ranks], steps, np.bincount(steps).tolist()


def embed_batch(tape: Tape | None, instances: list[Instance], tables: EmbeddingTables,
                config: ModelConfig) -> Node:
    """Embed the real tokens of several instances ``[P x D]``, in packed order.

    Each row is a token's word, head-position and tail-position table rows
    side by side. Packed row k is lane ``lanes[k]``'s token at step
    ``steps[k]``: its word id sits at that offset in the lane's ids, and its
    position buckets come from the distances ``steps[k] - head_pos`` and
    ``steps[k] - tail_pos``. Backward adds each table's column slice of the
    gradient into its rows, so repeated ids accumulate."""
    lengths = [inst.true_length for inst in instances]
    lanes, steps, _ = _pack(lengths)
    starts = np.cumsum([0] + lengths[:-1])
    word_ids = np.concatenate([inst.token_ids for inst in instances])[starts[lanes] + steps]
    position_ids = [position_buckets(steps - np.array(pos)[lanes], config.max_distance)
                    for pos in ([inst.head_pos for inst in instances],
                                [inst.tail_pos for inst in instances])]
    parts = list(zip((tables.word, tables.head_position, tables.tail_position),
                     [word_ids] + position_ids))
    out = Node(np.concatenate([table.value[ids] for table, ids in parts], axis=1))
    if tape is not None:
        def bwd() -> None:
            offset = 0
            for table, ids in parts:
                width = table.shape[1]
                np.add.at(table.grad, ids, out.grad[:, offset:offset + width])
                offset += width
        tape.record(out, bwd)
    return out


@functools.lru_cache(maxsize=None)
def _gate_affine(u: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    # sigmoid(z) = tanh(z/2)/2 + 1/2, so tanh(z*scale)*scale + shift is the
    # sigmoid on the i, f and o blocks and tanh on g: four whole-row passes
    # in place of one per block, and exact, as scaling by 1/2 rounds nothing
    scale = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype=dtype), u)
    shift = np.where(scale == 1.0, 0.0, 0.5).astype(dtype)
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def lstm_step(gates: np.ndarray, c_prev: np.ndarray, c: np.ndarray, h: np.ndarray) -> None:
    """One LSTM cell update on token-major arrays, in place.

    ``gates`` is ``[k x 4u]``, one row of pre-activations per lane in gate
    order i, f, g, o; it is activated in place, g by tanh and i, f, o by the
    sigmoid written as ``(1 + tanh(z/2)) / 2``. ``c_prev`` holds the cells
    of the first ``m <= k`` lanes; the other lanes start from zero. The new
    cell ``f*c_prev + i*g`` is written to ``c`` and ``o*tanh(c)`` to ``h``.
    """
    u = h.shape[1]
    scale, shift = _gate_affine(u, gates.dtype)
    gates *= scale
    np.tanh(gates, out=gates)
    gates *= scale
    gates += shift
    np.multiply(gates[:, :u], gates[:, 2 * u:3 * u], out=c)
    m = c_prev.shape[0]
    c[:m] += gates[:m, u:2 * u] * c_prev
    np.tanh(c, out=h)
    h *= gates[:, 3 * u:]


def _run_direction(x: np.ndarray, widths: list[int], direction: LstmDirection
                   ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Run one direction forward over the packed tokens ``x`` ``[P x D]``.

    ``x`` holds the real tokens only, as :func:`_pack` lays them out: step by
    step, step t's ``widths[t]`` lanes continuing the first lanes of step
    t-1. Returns the states ``[P x u]`` and the BPTT closure, which takes
    their gradient (a fresh array, overwritten), runs over the saved gates
    and cells, adds the weight gradients, each formed with one product, and
    returns the gradient of ``x``.
    """
    w_in, w_rec, bias = direction.w_in.value, direction.w_rec.value, direction.bias.value
    u = w_rec.shape[1]
    z = x @ w_in.T                            # [P x 4u] pre-activations, then gates
    z += bias.T
    cells = np.empty((z.shape[0], u), dtype=z.dtype)
    states = np.empty_like(cells)
    offsets = list(itertools.accumulate(widths, initial=0))
    # (first row, end row, previous step's first row, lanes carried over):
    # step 0 starts every lane from the zero state
    schedule = [(a, b, p, b - a if t else 0)
                for t, (p, a, b) in enumerate(zip([0] + offsets, offsets, offsets[1:]))]
    w_rec_t = np.ascontiguousarray(w_rec.T)   # BLAS is slow on the transposed view
    for a, b, p, m in schedule:
        if m:
            z[a:b] += states[p:p + m] @ w_rec_t
        lstm_step(z[a:b], cells[p:p + m], cells[a:b], states[a:b])

    def bptt(dh: np.ndarray) -> np.ndarray:
        # token t of a lane follows token t-1 of the same lane: pair every
        # row after step 0 with its row at the step before
        first = widths[0] if widths else 0
        earlier = np.arange(first, len(z)) - np.repeat(np.array(widths[:-1], dtype=int),
                                                       widths[1:])
        # every token's local derivatives at once, written into dz: those of
        # i, f and g by the cell, that of o by the state; the loop then
        # carries only the hidden and cell gradients from step to step and
        # scales each step's rows of dz by them in place
        z3 = z.reshape(-1, 4, u)                  # [P x gate x u]
        i, f, g, o = z3[:, 0], z3[:, 1], z3[:, 2], z3[:, 3]
        dz = np.empty_like(z3)
        np.multiply(g * i, 1.0 - i, out=dz[:, 0])
        dz[:first, 1] = 0.0                       # step 0 starts from the zero cell
        dz[first:, 1] = cells[earlier] * f[first:] * (1.0 - f[first:])
        np.multiply(i, 1.0 - g * g, out=dz[:, 2])
        dh_dc = np.tanh(cells)
        np.multiply(dh_dc * o, 1.0 - o, out=dz[:, 3])
        dh_dc *= dh_dc
        np.subtract(1.0, dh_dc, out=dh_dc)
        dh_dc *= o                                # o * (1 - tanh(c)^2)
        dc = np.zeros_like(cells)
        for a, b, p, m in reversed(schedule):
            dc_t = dc[a:b]
            dc_t += dh[a:b] * dh_dc[a:b]
            dz[a:b, :3] *= dc_t[:, None]
            dz[a:b, 3] *= dh[a:b]
            if m:
                dh[p:p + m] += dz[a:b].reshape(m, -1) @ w_rec
                dc[p:p + m] += dc_t * f[a:b]
        del dh, dc, dh_dc                         # freed before the weight products
        dz = dz.reshape(z.shape)
        ad._accum(direction.w_in, dz.T @ x)
        ad._accum(direction.bias, dz.sum(axis=0)[:, None])
        ad._accum(direction.w_rec, dz[first:].T @ states[earlier])
        return dz @ w_in
    return states, bptt


def bilstm_encode_batch(tape: Tape | None, embedded: Node, lengths,
                        params: LstmParams) -> Node:
    """Bidirectional states ``[n x 2u x t_run]`` of a packed embedded batch.

    ``embedded`` is ``[sum(lengths) x D]`` in :func:`_pack`'s order, as
    :func:`embed_batch` returns it. Only real tokens are computed, up to the
    batch's longest true length ``t_run``, and every padded position is
    exactly zero. The reverse direction is the same recurrence run over each
    lane's tokens mirrored, last first. Both directions are one tape record;
    its backward runs the reverse direction's BPTT, then the forward one's.
    """
    lanes, steps, widths = _pack(lengths)
    x = embedded.value
    if x.shape[0] != lanes.size:
        raise ad.ShapeError(f"embedded height {x.shape[0]} != {lanes.size} real tokens")
    # each step keeps one lane order, so row k mirrors to the same lane's
    # token at step ``back``, in row k's place in it; ``rev`` is an involution
    offsets = np.cumsum([0] + widths)
    back = np.asarray(lengths)[lanes] - 1 - steps
    rev = offsets[back] - offsets[steps] + np.arange(lanes.size)
    fwd_states, fwd_bptt = _run_direction(x, widths, params.fwd)
    bwd_states, bwd_bptt = _run_direction(x[rev], widths, params.bwd)
    u = fwd_states.shape[1]
    out = Node(np.zeros((len(lengths), 2 * u, len(widths)), dtype=x.dtype))
    out.value[lanes, :u, steps] = fwd_states
    out.value[lanes, u:, back] = bwd_states
    if tape is not None:
        def bwd() -> None:
            dx = bwd_bptt(out.grad[lanes, u:, back])[rev]
            dx += fwd_bptt(out.grad[lanes, :u, steps])
            ad._accum(embedded, dx)
        tape.record(out, bwd)
    return out
