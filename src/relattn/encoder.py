"""Sentence encoder: word + relative-position embeddings into a BiLSTM.

A batch's packed layout has one owner, :class:`BatchPlan`, built once per
pass: the real tokens, step by step over the lanes sorted longest first.
The embedding gathers their table rows in that order into one token-major
``[P x D]`` (``P = sum(lengths)``) and one tape record. The BiLSTM is one
more record and one recurrence, :func:`_run_direction`, run over the packed
rows and, for the reverse direction, over the rows mirrored within each
lane. It projects every token with one matmul and runs :func:`lstm_step`
once per step of the plan's schedule; the states are scattered into
``[n x 2u x t_run]``, every padded position exactly zero, in token-major
memory, so that word attention reads the real tokens as whole rows. Its
backward pass is hand-written BPTT. The two directions are the
tasks ``[forward, reverse]`` of one ``autodiff.halves`` call in each pass,
by the rule of the other large products: where one direction's
multiply-adds reach ``autodiff.CONCURRENT_MIN_PRODUCT`` and two cores are
free, the reverse direction runs on the worker thread. They share no
writable array, so outputs and gradients are the same bits either way.
"""

from __future__ import annotations

import functools
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


@dataclass(frozen=True, eq=False)
class BatchPlan:
    """The packed layout of a batch, built once per pass by :meth:`of` from its
    true lengths: the real tokens, step by step over the lanes sorted longest
    first (a stable sort), so that each step holds a prefix of the lanes."""

    lengths: np.ndarray    # [n] true lengths
    lanes: np.ndarray      # [P] lane of each packed row
    steps: np.ndarray      # [P] step of each packed row
    widths: list[int]      # [t_run] lanes running at each step
    schedule: tuple        # per step (first row, end row, previous step's first row, lanes carried)
    rev: np.ndarray        # [P] row of each row's mirror; an involution
    earlier: np.ndarray    # [P - widths[0]] the row of each later row's lane at the step before
    starts: np.ndarray     # [n] offset of each lane's ids in the concatenated ids
    valid: np.ndarray      # [n x 1 x t_run] True at real positions
    at: np.ndarray         # [P] each row's row in the token-major [n*t_run x 2u] state block
    at_back: np.ndarray    # [P] the row there of its mirror's token; at[rev]

    @classmethod
    def of(cls, lengths) -> BatchPlan:
        lengths = np.asarray(lengths, dtype=np.int64)
        order = np.argsort(-lengths, kind="stable")
        t_run = lengths.max()
        steps, ranks = np.nonzero(np.arange(t_run)[:, None] < lengths[order])
        lanes = order[ranks]
        widths = np.bincount(steps).tolist()
        offsets = np.cumsum([0] + widths)
        bounds = offsets.tolist()   # step 0 carries no lane over, from the zero state
        schedule = tuple(zip(bounds, bounds[1:], [0] + bounds, [0] + widths[1:]))
        rank = np.arange(lanes.size) - offsets[steps]   # a row's place in its step
        back = lengths[lanes] - 1 - steps
        return cls(lengths, lanes, steps, widths, schedule, offsets[back] + rank,
                   (offsets[steps - 1] + rank)[steps > 0], np.cumsum(lengths) - lengths,
                   (np.arange(t_run) < lengths[:, None])[:, None, :],
                   lanes * t_run + steps, lanes * t_run + back)

    # bench/tracing.py binds bilstm_encode_batch's ``lengths`` and takes len()
    # and sum() of it; ROADMAP item 9's in-package spans retire these two
    def __len__(self) -> int:
        return self.lengths.size

    def __iter__(self):
        return iter(self.lengths)


def embed_batch(tape: Tape | None, instances: list[Instance], plan: BatchPlan,
                tables: EmbeddingTables, config: ModelConfig) -> Node:
    """Embed the real tokens of several instances ``[P x D]``, in plan order.

    Each row is a token's word, head-position and tail-position table rows
    side by side. Packed row k is lane ``lanes[k]``'s token at step
    ``steps[k]``: its word id sits at that offset in the lane's ids, and its
    position buckets come from the distances ``steps[k] - head_pos`` and
    ``steps[k] - tail_pos``, one ``[2 x P]`` array. Backward adds each
    table's column slice of the gradient into its rows, so repeated ids
    accumulate, token by token in plan order: one 1-D ``np.add.at`` over
    the entries ``id * width + col`` of the table's flat gradient, which
    must be C-contiguous."""
    # np.take, as numpy's fancy indexing costs several times more per call here
    lanes, steps = plan.lanes, plan.steps
    token_ids = np.concatenate([inst.token_ids for inst in instances])
    entities = np.array([inst.head_pos for inst in instances]
                        + [inst.tail_pos for inst in instances]).reshape(2, -1)   # [2 x n]
    positions = position_buckets(steps - entities.take(lanes, axis=1), config.max_distance)
    parts = list(zip((tables.word, tables.head_position, tables.tail_position),
                     (token_ids.take(plan.starts.take(lanes) + steps), *positions)))
    out = Node(np.concatenate([table.value.take(ids, axis=0) for table, ids in parts], axis=1))
    if tape is not None:
        def bwd() -> None:
            # numpy's row form of np.add.at is its slow path; the flat form
            # makes the same additions in the same order. A gradient that is
            # not C-contiguous would flatten to a copy, and its scatter be lost
            if not all(table.grad.flags.c_contiguous for table, _ in parts):
                raise ValueError("embed_batch: an embedding table's gradient is not C-contiguous")
            offset = 0
            for table, ids in parts:
                width = table.shape[1]
                entries = (ids[:, None] * width + np.arange(width)).ravel()
                np.add.at(table.grad.reshape(-1), entries,
                          out.grad[:, offset:offset + width].ravel())
                offset += width
        tape.record(out, bwd)
    return out


@functools.lru_cache(maxsize=None)
def _gate_affine(u: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    # sigmoid(z) = tanh(z/2)/2 + 1/2, so tanh(z*scale)*scale + shift is the
    # sigmoid on the i, f and o blocks and tanh on g: whole-row passes in
    # place of one per block, and exact, as scaling by 1/2 rounds nothing.
    # _run_direction applies the first scale to the weights, lstm_step the rest
    scale = np.repeat(np.array([0.5, 0.5, 1.0, 0.5], dtype=dtype), u)
    shift = np.where(scale == 1.0, 0.0, 0.5).astype(dtype)
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def lstm_step(gates: np.ndarray, c_prev: np.ndarray, c: np.ndarray, h: np.ndarray) -> None:
    """One LSTM cell update on token-major arrays, in place.

    ``gates`` is ``[k x 4u]``, one row of pre-activations per lane in gate
    order i, f, g, o, with those of i, f and o already halved (the scale of
    :func:`_gate_affine`); it is activated in place, g by tanh and i, f, o
    by the sigmoid written as ``(1 + tanh(z/2)) / 2``. ``c_prev`` holds the
    cells of the first ``m <= k`` lanes; the other lanes start from zero.
    The new cell ``f*c_prev + i*g`` is written to ``c`` and ``o*tanh(c)``
    to ``h``.
    """
    u = h.shape[1]
    scale, shift = _gate_affine(u, gates.dtype)
    np.tanh(gates, out=gates)
    gates *= scale
    gates += shift
    np.multiply(gates[:, :u], gates[:, 2 * u:3 * u], out=c)
    m = c_prev.shape[0]
    c[:m] += gates[:m, u:2 * u] * c_prev
    np.tanh(c, out=h)
    h *= gates[:, 3 * u:]


def _run_direction(x: np.ndarray, plan: BatchPlan, direction: LstmDirection
                   ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Run one direction forward over the packed tokens ``x`` ``[P x D]``.

    ``x`` holds the real tokens in the order of ``plan``, the one owner of
    the layout, and both directions run its one schedule. Returns the states
    ``[P x u]`` and the BPTT closure, which takes their gradient (a fresh
    array, overwritten), runs over the saved gates and cells, adds the
    weight gradients, each formed with one product, and returns dx.
    """
    w_in, w_rec, bias = direction.w_in.value, direction.w_rec.value, direction.bias.value
    u = w_rec.shape[1]
    # the weights and bias scaled once per pass, not each step's gates
    scale = _gate_affine(u, w_in.dtype)[0]
    z = x @ (w_in * scale[:, None]).T         # [P x 4u] pre-activations, then gates
    z += bias.T * scale
    cells = np.empty((z.shape[0], u), dtype=z.dtype)
    states = np.empty_like(cells)
    # C-contiguous, as BLAS is slow on the transposed view; an F-ordered
    # copy changed the bits of the recurrent product at 9 lanes
    w_rec_t = np.ascontiguousarray(w_rec.T)
    w_rec_t *= scale
    for a, b, p, m in plan.schedule:
        if m:
            z[a:b] += states[p:p + m] @ w_rec_t
        lstm_step(z[a:b], cells[p:p + m], cells[a:b], states[a:b])

    def bptt(dh: np.ndarray) -> np.ndarray:
        first = len(z) - len(plan.earlier)        # the rows of step 0
        # every token's local derivatives at once, written into dz: those of
        # i, f and g by the cell, that of o by the state; the loop then
        # carries only the hidden and cell gradients from step to step and
        # scales each step's rows of dz by them in place. One [P x u]
        # scratch holds each second factor and then dh/dc; tanh(c) is taken
        # twice so that no second one is needed
        z3 = z.reshape(-1, 4, u)                  # [P x gate x u]
        i, f, g, o = z3[:, 0], z3[:, 1], z3[:, 2], z3[:, 3]
        dz = np.empty_like(z3)
        scratch = np.empty_like(cells)
        np.multiply(g, i, out=dz[:, 0])
        dz[:, 0] *= np.subtract(1.0, i, out=scratch)           # (g*i) * (1-i)
        dz[:first, 1] = 0.0                       # step 0 starts from the zero cell
        np.take(cells, plan.earlier, axis=0, out=scratch[first:], mode="clip")   # unbuffered
        scratch[first:] *= f[first:]
        np.subtract(1.0, f[first:], out=dz[first:, 1])
        dz[first:, 1] *= scratch[first:]          # (c_prev*f) * (1-f)
        np.multiply(g, g, out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        np.multiply(i, scratch, out=dz[:, 2])     # i * (1-g*g)
        np.multiply(np.tanh(cells, out=scratch), o, out=dz[:, 3])
        dz[:, 3] *= np.subtract(1.0, o, out=scratch)           # (tanh(c)*o) * (1-o)
        dh_dc = np.tanh(cells, out=scratch)
        dh_dc *= dh_dc
        np.subtract(1.0, dh_dc, out=dh_dc)
        dh_dc *= o                                # o * (1 - tanh(c)^2)
        # the cell gradient into the current step's lanes; the lanes that
        # end at a step get none from the step after, and stay zero
        dc = np.zeros((first, u), dtype=cells.dtype)
        for a, b, p, m in reversed(plan.schedule):
            dc_t = dc[:b - a]
            dc_t += dh[a:b] * dh_dc[a:b]
            dz[a:b, :3] *= dc_t[:, None]
            dz[a:b, 3] *= dh[a:b]
            if m:
                dh[p:p + m] += dz[a:b].reshape(m, -1) @ w_rec
                dc_t *= f[a:b]
                dc_t += 0.0                       # as if added to zeros: -0.0 becomes 0.0
        del dh, dc, dh_dc, scratch                # freed before the weight products
        dz = dz.reshape(z.shape)
        ad._accum(direction.w_in, dz.T @ x)
        ad._accum(direction.bias, dz.sum(axis=0)[:, None])
        ad._accum(direction.w_rec, dz[first:].T @ states.take(plan.earlier, axis=0))
        return dz @ w_in
    return states, bptt


def bilstm_encode_batch(tape: Tape | None, embedded: Node, lengths: BatchPlan,
                        params: LstmParams) -> Node:
    """Bidirectional states ``[n x 2u x t_run]`` of a packed embedded batch,
    a view of a token-major ``[n x t_run x 2u]`` block.

    ``lengths`` is the batch's :class:`BatchPlan`, the one owner of its
    layout, and ``embedded`` is ``[P x D]`` in its order. Only real
    tokens are computed, up to the longest true length ``t_run``, and every
    padded position is exactly zero. The reverse direction is the same
    recurrence run over each lane's tokens mirrored by the plan's ``rev``.
    Both directions are one tape record, and the two tasks of one
    ``autodiff.halves`` call in the forward pass and one in BPTT, whose
    work is one direction's forward multiply-adds; either path gives the
    same bits.
    """
    plan = lengths   # the name bench/tracing.py binds (see BatchPlan.__len__)
    rev = plan.rev
    x = embedded.value
    if x.shape[0] != rev.size:
        raise ad.ShapeError(f"embedded height {x.shape[0]} != {rev.size} real tokens")
    work = len(x) * (params.fwd.w_in.value.size + params.fwd.w_rec.value.size)
    (fwd_states, fwd_bptt), (bwd_states, bwd_bptt) = ad.halves(
        [lambda: _run_direction(x, plan, params.fwd),
         lambda: _run_direction(x.take(rev, axis=0), plan, params.bwd)], work)
    u = fwd_states.shape[1]
    # token-major memory: these scatters, their gathers and word attention's
    # read of the real tokens all move whole rows, by their flat row in
    # the [n*t_run x 2u] block
    n, t_run = plan.lengths.size, len(plan.widths)
    states = np.zeros((n * t_run, 2 * u), dtype=x.dtype)
    states[plan.at, :u] = fwd_states
    states[plan.at_back, u:] = bwd_states
    out = Node(states.reshape(n, t_run, 2 * u).swapaxes(1, 2))
    if tape is not None:
        def bwd() -> None:
            # a view where the gradient is token-major, as _accum lays it out
            g = out.grad.swapaxes(1, 2).reshape(n * t_run, 2 * u)
            halves = {"fwd": g[plan.at, :u], "bwd": g[plan.at_back, u:]}
            out.grad = g = None   # both halves gathered; each BPTT pops and frees its own
            tasks = [lambda: fwd_bptt(halves.pop("fwd")), lambda: bwd_bptt(halves.pop("bwd"))]
            dx_f, dx_b = ad.halves(tasks, work)
            dx = dx_b.take(rev, axis=0)
            dx += dx_f
            ad._accum(embedded, dx)
        tape.record(out, bwd)
    return out
