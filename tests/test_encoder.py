"""Embedding and BiLSTM encoder tests, including masking invariants."""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relattn import autodiff as ad
from relattn import encoder as enc
from relattn.autodiff import Parameter, Tape, finite_diff_check
from relattn.config import ModelConfig
from relattn.data import BLANK_TOKEN, UNK_TOKEN, Dataset, Instance, SynthSpec, Vocab
from relattn.model import Model
from relattn.training import train


CLASSES = 2   # the classifier head is built but never used here


def tiny_config(**kw):
    base = dict(word_dim=4, position_dim=2, max_distance=3, time_steps=3,
                hidden_size=3, precision="float64")
    base.update(kw)
    return ModelConfig(**base)


def make_instance(token_ids, head=0, tail=1):
    return Instance(np.asarray(token_ids, dtype=np.int64), head, tail)


def fresh_model(cfg, vocab_size=6, seed=0):
    """A fresh model to take tables or LSTM weights from; ``seed`` may be a Generator."""
    return Model(cfg, vocab_size, CLASSES, rng=np.random.default_rng(seed))


def tables_for(cfg, vocab_size=6, seed=0):
    return fresh_model(cfg, vocab_size, seed).embeddings


def plan_of(instances):
    return enc.BatchPlan.of([inst.true_length for inst in instances])


def embed_one(tape, instance, tables, cfg):
    return enc.embed_batch(tape, [instance], plan_of([instance]), tables, cfg)


class TestEmbeddings:
    def test_output_shape(self):
        cfg = tiny_config()
        tables = tables_for(cfg)
        inst = make_instance([2, 3, 4])
        out = embed_one(None, inst, tables, cfg)
        assert out.shape == (3, 6)   # one row per token, word_dim + position_dim columns

    def test_one_row_per_real_token(self):
        # the rows are the sum(lengths) real tokens, an empty instance none
        cfg = tiny_config(time_steps=4)
        tables = tables_for(cfg)
        instances = [make_instance([2, 3]), make_instance([]),
                     make_instance([4, 5, 2, 3]), make_instance([5])]
        out = enc.embed_batch(None, instances, plan_of(instances), tables, cfg)
        assert out.shape == (2 + 0 + 4 + 1, 6)

    def test_head_position_separates_otherwise_equal_instances(self):
        cfg = tiny_config()
        tables = tables_for(cfg)
        a = embed_one(None, make_instance([2, 3, 4], head=0, tail=2), tables, cfg).value
        b = embed_one(None, make_instance([2, 3, 4], head=1, tail=2), tables, cfg).value
        np.testing.assert_array_equal(a[:, :4], b[:, :4])        # word columns agree
        assert not np.array_equal(a[:, 4:5], b[:, 4:5])          # head-position column differs
        np.testing.assert_array_equal(a[:, 5:], b[:, 5:])        # tail-position column agrees

    def test_id_out_of_range(self):
        cfg = tiny_config()
        tables = tables_for(cfg, vocab_size=4)
        with pytest.raises(IndexError):
            embed_one(None, make_instance([2, 3, 9]), tables, cfg)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 4), st.data())
    def test_rows_match_brute_force_loop(self, t_steps, max_distance, data):
        # every table row differs, so each embedded row names its word and buckets
        cfg = tiny_config(time_steps=t_steps, max_distance=max_distance, position_dim=4)
        tables = tables_for(cfg, vocab_size=8)
        n = data.draw(st.integers(1, 4))
        instances = []
        for _ in range(n):
            length = data.draw(st.integers(0, t_steps))
            ids = data.draw(st.lists(st.integers(0, 7), min_size=length, max_size=length))
            instances.append(make_instance(ids, head=data.draw(st.integers(0, t_steps - 1)),
                                           tail=data.draw(st.integers(0, t_steps - 1))))
        plan = plan_of(instances)
        out = enc.embed_batch(None, instances, plan, tables, cfg).value
        for j, inst in enumerate(instances):
            rows = out[plan.lanes == j]   # instance j's tokens, step by step
            np.testing.assert_array_equal(rows, brute_force_rows(inst, tables, cfg))

    def test_pretrained_substitution(self):
        cfg = tiny_config(epochs=0)
        vec = np.array([9.0, 8.0, 7.0, 6.0])
        vocab = Vocab([BLANK_TOKEN, UNK_TOKEN, "other", "known", "more"])
        dataset = Dataset([], vocab, [f"r{c}" for c in range(CLASSES)])
        tables = train(dataset, cfg, pretrained={"known": vec, "absent": vec}).model.embeddings
        np.testing.assert_array_equal(tables.word.value[3], vec)
        assert np.abs(tables.word.value[2]).max() < 0.5   # untouched rows stay small

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["float32", "float64"]), st.integers(1, 8), st.data())
    def test_backward_matches_the_row_form_bit_for_bit(self, precision, t_steps, data):
        # the flat 1-D np.add.at makes the additions of np.add.at's row form
        # in its order: ids repeat (3 words, few buckets), and each table's
        # gradient already holds values, as after an earlier batch
        md = data.draw(st.integers(1, 3))
        cfg = tiny_config(time_steps=t_steps, max_distance=md, position_dim=4,
                          precision=precision)
        tables = tables_for(cfg, vocab_size=5, seed=data.draw(st.integers(0, 99)))
        instances = []
        for _ in range(data.draw(st.integers(1, 4))):
            length = data.draw(st.integers(0, t_steps))
            instances.append(make_instance(
                data.draw(st.lists(st.integers(2, 4), min_size=length, max_size=length)),
                head=data.draw(st.integers(0, t_steps - 1)),
                tail=data.draw(st.integers(0, t_steps - 1))))
        plan = plan_of(instances)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        parts = (tables.word, tables.head_position, tables.tail_position)
        for table in parts:
            table.grad[...] = rng.standard_normal(table.shape)
        start = [table.grad.copy() for table in parts]
        tape = Tape()
        out = enc.embed_batch(tape, instances, plan, tables, cfg)
        probe = rng.standard_normal(out.shape).astype(cfg.dtype)
        ad.backward(tape, ad.sum_all(tape, ad.mul_const(tape, out, probe)))

        def bucket(distance):
            return min(max(distance, -md), md) + md
        rows = [(instances[j], t) for j, t in zip(plan.lanes, plan.steps)]
        ids = [[inst.token_ids[t] for inst, t in rows],
               [bucket(t - inst.head_pos) for inst, t in rows],
               [bucket(t - inst.tail_pos) for inst, t in rows]]
        edges = np.cumsum([0] + [table.shape[1] for table in parts])
        for table, want, table_ids, lo, hi in zip(parts, start, ids, edges, edges[1:]):
            np.add.at(want, np.array(table_ids, dtype=np.int64), probe[:, lo:hi])
            assert table.grad.dtype == cfg.dtype
            np.testing.assert_array_equal(table.grad, want, err_msg=table.name)

    def test_a_gradient_that_is_not_c_contiguous_raises(self):
        # reshape(-1) of such a gradient is a copy, so a scatter into it
        # would be dropped; the backward pass raises before any table moves
        cfg = tiny_config(position_dim=4)
        tables = tables_for(cfg)
        tables.tail_position.grad = np.zeros((tables.tail_position.shape[0], 4))[:, :2]
        assert not np.shares_memory(tables.tail_position.grad.reshape(-1),
                                    tables.tail_position.grad)
        tape = Tape()
        out = embed_one(tape, make_instance([2, 3, 4]), tables, cfg)
        with pytest.raises(ValueError, match="not C-contiguous"):
            ad.backward(tape, ad.sum_all(tape, out))
        for table in (tables.word, tables.head_position, tables.tail_position):
            assert not table.grad.any(), table.name


def _sigmoid(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def brute_force_rows(inst, tables, cfg):
    """One instance's embedding ``[len x D]``, token by token: the word row,
    then the head and tail rows of the clipped, shifted distances."""
    md = cfg.max_distance

    def bucket(distance):
        return min(max(distance, -md), md) + md

    rows = np.zeros((inst.true_length, cfg.word_dim + cfg.position_dim))
    for t in range(inst.true_length):
        rows[t] = np.concatenate([tables.word.value[inst.token_ids[t]],
                                  tables.head_position.value[bucket(t - inst.head_pos)],
                                  tables.tail_position.value[bucket(t - inst.tail_pos)]])
    return rows


def padded_embedding(instances, tables, cfg):
    """Every instance's rows zero-padded to ``time_steps``, ``[n x D x T]``."""
    out = np.zeros((len(instances), cfg.word_dim + cfg.position_dim, cfg.time_steps))
    for j, inst in enumerate(instances):
        out[j, :, :inst.true_length] = brute_force_rows(inst, tables, cfg).T
    return out


def reference_bilstm(embedded, lengths, params):
    """Plain-numpy BiLSTM in the per-gate formulation, for pinning the fast path.

    ``embedded`` is the padded ``[n x D x T]``. Every step projects its own
    input columns, squashes each gate separately and zeroes the lanes past
    their true length afterwards; both directions run over all T steps, and
    the ``[n x 2u x T]`` output is zero at every padded position.
    """
    lengths = np.asarray(lengths)
    n, _, t_steps = embedded.shape
    out = []
    for direction, steps in ((params.fwd, range(t_steps)),
                             (params.bwd, reversed(range(t_steps)))):
        u = direction.w_rec.value.shape[1]
        w_in, w_rec, bias = direction.w_in.value, direction.w_rec.value, direction.bias.value
        h = np.zeros((u, n))
        c = np.zeros((u, n))
        states = np.zeros((n, u, t_steps))
        for t in steps:
            x = embedded[:, :, t].T
            pre = w_in @ x + w_rec @ h + bias
            i = _sigmoid(pre[:u])
            f = _sigmoid(pre[u:2 * u])
            g = np.tanh(pre[2 * u:3 * u])
            o = _sigmoid(pre[3 * u:])
            c = f * c + i * g
            h = o * np.tanh(c)
            keep = (lengths > t).astype(float)
            h, c = h * keep, c * keep
            states[:, :, t] = h.T
        out.append(states)
    return np.concatenate(out, axis=1)


class TestLstmStep:
    def step(self, gates, c_prev):
        # lstm_step takes the i, f and o pre-activations halved, as
        # _run_direction's scaled weights give them
        k, u = gates.shape[0], gates.shape[1] // 4
        c, h = np.empty((k, u)), np.empty((k, u))
        gates *= enc._gate_affine(u, gates.dtype)[0]
        enc.lstm_step(gates, c_prev, c, h)
        return c, h

    def test_zero_weights_give_zero_state(self):
        # zero weights and bias make every pre-activation zero
        c, h = self.step(np.zeros((2, 12)), np.zeros((2, 3)))
        np.testing.assert_array_equal(c, 0.0)
        np.testing.assert_array_equal(h, 0.0)

    def test_open_forget_gate_retains_memory(self):
        gates = np.zeros((1, 12))
        gates[:, 3:6] = 10.0   # forget slice
        c_prev = np.random.default_rng(0).uniform(-1, 1, (1, 3))
        c, _ = self.step(gates, c_prev)
        assert np.abs(c - c_prev).max() < 1e-3

    def test_matches_per_gate_formula_and_new_lanes_start_from_zero(self):
        # three lanes, only the first carries a cell; both sigmoid tails are reached
        rng = np.random.default_rng(2)
        z = rng.uniform(-12, 12, (3, 8))
        c_prev = rng.uniform(-1, 1, (1, 2))
        gates = z.copy()
        c, h = self.step(gates, c_prev)
        i, f, g, o = _sigmoid(z[:, :2]), _sigmoid(z[:, 2:4]), np.tanh(z[:, 4:6]), _sigmoid(z[:, 6:])
        np.testing.assert_allclose(gates, np.hstack([i, f, g, o]), rtol=1e-12, atol=1e-15)
        want_c = i * g + np.vstack([f[:1] * c_prev, np.zeros((2, 2))])
        np.testing.assert_allclose(c, want_c, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(h, o * np.tanh(want_c), rtol=1e-12, atol=1e-15)

    def test_forget_bias_initialized_to_one(self):
        cfg = tiny_config()
        params = fresh_model(cfg).lstm
        u = cfg.hidden_size
        for d in (params.fwd, params.bwd):
            np.testing.assert_array_equal(d.bias.value[u:2 * u], np.ones((u, 1)))
            np.testing.assert_array_equal(d.bias.value[:u], np.zeros((u, 1)))
            assert np.abs(d.w_in.value).max() <= 0.1
            assert np.abs(d.w_rec.value).max() <= 0.1


def length_lists(t_steps):
    """Lane lengths in 1..T: any order, strictly descending, strictly ascending,
    all equal, or a single lane."""
    distinct = st.lists(st.integers(1, t_steps), min_size=1, max_size=5, unique=True)
    return st.one_of(
        st.lists(st.integers(1, t_steps), min_size=1, max_size=5),
        distinct.map(lambda xs: sorted(xs, reverse=True)),
        distinct.map(sorted),
        st.tuples(st.integers(1, t_steps), st.integers(2, 5)).map(lambda p: [p[0]] * p[1]),
        st.integers(1, t_steps).map(lambda length: [length]),
    )


def brute_force_plan(lengths):
    """Every :class:`~relattn.encoder.BatchPlan` field, lane by lane and step
    by step in plain Python: lanes sorted longest first, ties in lane order."""
    n, t_run = len(lengths), max(lengths)
    order = sorted(range(n), key=lambda j: -lengths[j])   # sorted() is stable
    rows = [(j, t) for t in range(t_run) for j in order if t < lengths[j]]
    row_of = {lane_step: k for k, lane_step in enumerate(rows)}
    widths = [sum(t < length for length in lengths) for t in range(t_run)]
    offsets = [sum(widths[:t]) for t in range(t_run + 1)]
    return dict(
        lengths=list(lengths),
        lanes=[j for j, _ in rows],
        steps=[t for _, t in rows],
        widths=widths,
        # step t > 0 carries over every lane it runs, from step t-1's rows
        schedule=[(offsets[t], offsets[t + 1], offsets[t - 1] if t else 0,
                   widths[t] if t else 0) for t in range(t_run)],
        rev=[row_of[j, lengths[j] - 1 - t] for j, t in rows],
        earlier=[row_of[j, t - 1] for j, t in rows if t > 0],
        starts=[sum(lengths[:j]) for j in range(n)],
        valid=[[[t < lengths[j] for t in range(t_run)]] for j in range(n)],
        # rows of the token-major [n*t_run x 2u] state block
        at=[j * t_run + t for j, t in rows],
        at_back=[j * t_run + lengths[j] - 1 - t for j, t in rows],
    )


class TestBatchPlan:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_every_field_matches_brute_force(self, t_steps, data):
        lengths = data.draw(length_lists(t_steps))
        for _ in range(data.draw(st.integers(0, 2))):   # empty lanes, like gradcheck's
            lengths.insert(data.draw(st.integers(0, len(lengths))), 0)
        plan = enc.BatchPlan.of(lengths)
        want = brute_force_plan(lengths)
        assert set(want) == {f.name for f in dataclasses.fields(plan)}
        for name, value in want.items():
            got = getattr(plan, name)
            assert (got.tolist() if isinstance(got, np.ndarray) else list(got)) == value, name
        assert plan.valid.shape == (len(lengths), 1, max(lengths))
        # the two methods bench/tracing.py reads: the lane count and the lengths
        assert len(plan) == len(lengths) and list(plan) == lengths


class TestFusedDirection:
    """``bilstm_encode_batch``: one tape record for both directions, BPTT on backward."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
    def test_both_directions_match_finite_differences(self, t_steps, seed, data):
        # lanes sorted longest first give the step widths; both directions
        # narrow through them, the reverse one over each lane's mirrored
        # rows. An empty lane adds positions no token writes
        lengths = data.draw(length_lists(t_steps)) + [0]
        plan = enc.BatchPlan.of(lengths)
        rng = np.random.default_rng(seed)
        u, d_in, n = 2, 3, len(lengths)
        packed = Parameter("packed", rng.uniform(-1, 1, (sum(lengths), d_in)))
        lstm = enc.LstmParams(*(enc.LstmDirection(
            w_in=Parameter("wi", rng.uniform(-0.8, 0.8, (4 * u, d_in))),
            w_rec=Parameter("wr", rng.uniform(-0.8, 0.8, (4 * u, u))),
            bias=Parameter("b", rng.uniform(-0.8, 0.8, (4 * u, 1))),
        ) for _ in range(2)))
        probe = rng.uniform(-1, 1, (n, 2 * u, max(lengths)))

        def f():
            tape = Tape()
            out = enc.bilstm_encode_batch(tape, packed, plan, lstm)
            assert len(tape) == 1
            return tape, ad.sum_all(tape, ad.mul_const(tape, out, probe))

        params = [p for d in (lstm.fwd, lstm.bwd) for p in (d.w_in, d.w_rec, d.bias)] + [packed]
        # central differences at h=1e-5 carry up to ~1e-10 of roundoff on a
        # loss of order one, so a nonzero gradient entry below 1e-5 cannot
        # be resolved to the 1e-5 relative tolerance; exact zeros can
        for p in params:
            p.zero_grad()
        ad.backward(*f())
        grads = np.concatenate([np.abs(p.grad).ravel() for p in params])
        assume(np.all((grads == 0) | (grads >= 1e-5)))
        err = finite_diff_check(f, params, h=1e-5)
        assert err < 1e-5, err

    def encode_with_tape(self, cfg, lengths, seed=0):
        t_steps = cfg.time_steps
        tables = tables_for(cfg, vocab_size=8, seed=seed)
        lstm = fresh_model(cfg, 8, seed + 1).lstm
        instances = [make_instance([2 + t % 5 for t in range(length)]) for length in lengths]
        plan = plan_of(instances)
        tape = Tape()
        embedded = enc.embed_batch(tape, instances, plan, tables, cfg)
        assert len(tape) == 1   # the embedding is one record, and so is the BiLSTM
        hidden = enc.bilstm_encode_batch(tape, embedded, plan, lstm)
        assert len(tape) == 2
        probe = np.random.default_rng(seed + 2).uniform(-1, 1, hidden.shape).astype(cfg.dtype)
        loss = ad.sum_all(tape, ad.mul_const(tape, hidden, probe))
        params = [tables.word, tables.head_position, tables.tail_position,
                  *(p for d in (lstm.fwd, lstm.bwd) for p in (d.w_in, d.w_rec, d.bias))]
        return tape, loss, hidden, params

    def test_second_backward_doubles_every_lstm_gradient(self):
        # the backward closure must not write into the buffers it saved; the
        # embedding tables are left out: their flat np.add.at still adds one
        # entry at a time into what the first pass left, so a second pass
        # need not give exactly twice the first
        tape, loss, _, params = self.encode_with_tape(tiny_config(time_steps=5), [3, 5, 1, 3])
        ad.backward(tape, loss)
        once = [p.grad.copy() for p in params[3:]]
        ad.backward(tape, loss)
        for p, g in zip(params[3:], once):
            assert np.abs(g).max() > 0, p.name
            np.testing.assert_array_equal(p.grad, 2.0 * g, err_msg=p.name)

    def test_float32_stays_float32(self, monkeypatch):
        cfg = tiny_config(time_steps=5, precision="float32")
        dtypes = []
        real_accum = ad._accum

        def recording_accum(node, g):
            dtypes.append(np.asarray(g).dtype)
            real_accum(node, g)

        monkeypatch.setattr(ad, "_accum", recording_accum)
        tape, loss, hidden, params = self.encode_with_tape(cfg, [3, 5, 1, 3])
        ad.backward(tape, loss)
        assert hidden.value.dtype == np.float32
        assert dtypes and set(dtypes) == {np.dtype(np.float32)}
        for p in params:
            assert p.grad.dtype == np.float32 and np.abs(p.grad).max() > 0, p.name


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mirror_law(self, dtype):
        # the reverse direction is the forward recurrence over each lane's
        # tokens mirrored. So encoding the mirrored rows with the directions'
        # weights swapped swaps each lane's halves and reverses its real
        # columns, and under mirrored probes every gradient is its swapped or
        # mirrored counterpart, all bit for bit. At u=64 and D=48 BLAS
        # rounds each product by its width, so both directions must run the
        # same products: one schedule, whatever the direction
        rng = np.random.default_rng(11)
        u, d_in = 64, 48
        lengths = rng.permutation(np.append(rng.integers(1, 40, 23), 0))
        plan = enc.BatchPlan.of(lengths)
        lanes, steps = plan.lanes, plan.steps
        row = {(lane, step): k for k, (lane, step) in enumerate(zip(lanes, steps))}
        rev = np.array([row[lane, lengths[lane] - 1 - step] for lane, step in zip(lanes, steps)])
        x = rng.uniform(-1, 1, (lanes.size, d_in)).astype(dtype)
        weights = [[rng.uniform(-0.3, 0.3, shape).astype(dtype)
                    for shape in ((4 * u, d_in), (4 * u, u), (4 * u, 1))] for _ in range(2)]
        probe = rng.uniform(-1, 1, (len(lengths), 2 * u, lengths.max())).astype(dtype)

        def mirror(a):
            m = np.zeros_like(a)
            for j, length in enumerate(lengths):
                real = a[j, :, :length][:, ::-1]
                m[j, :u, :length], m[j, u:, :length] = real[u:], real[:u]
            return m

        def encode(rows, fwd, bwd, probe):
            lstm = enc.LstmParams(*(enc.LstmDirection(*(Parameter(name, w) for name, w in
                                                       zip(("wi", "wr", "b"), ws)))
                                    for ws in (fwd, bwd)))
            packed = Parameter("packed", rows)
            tape = Tape()
            out = enc.bilstm_encode_batch(tape, packed, plan, lstm)
            ad.backward(tape, ad.sum_all(tape, ad.mul_const(tape, out, probe)))
            grads = [[p.grad for p in (d.w_in, d.w_rec, d.bias)] for d in (lstm.fwd, lstm.bwd)]
            return out.value, packed.grad, grads

        out, dx, (d_fwd, d_bwd) = encode(x, *weights, probe)
        out_m, dx_m, (d_fwd_m, d_bwd_m) = encode(x[rev], *weights[::-1], mirror(probe))
        assert out.dtype == dtype
        np.testing.assert_array_equal(out_m, mirror(out))
        np.testing.assert_array_equal(dx_m, dx[rev])
        for got, want in zip(d_fwd_m + d_bwd_m, d_bwd + d_fwd):
            np.testing.assert_array_equal(got, want)


class TestBilstm:
    def encode(self, cfg, instances, seed=0):
        tables = tables_for(cfg, vocab_size=8, seed=seed)
        lstm = fresh_model(cfg, 8, seed + 1).lstm
        plan = plan_of(instances)
        return enc.bilstm_encode_batch(None, enc.embed_batch(None, instances, plan, tables, cfg),
                                       plan, lstm)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.booleans(), st.data())
    def test_flat_rows_move_the_lane_step_entries(self, t_steps, token_major, data):
        # the states land where [lanes, steps, :u] and [lanes, back, u:]
        # put them, and each BPTT reads its gradient from there, whether the
        # gradient is token-major, as _accum lays it out, or not
        cfg = tiny_config(time_steps=t_steps)
        lengths = data.draw(length_lists(t_steps))
        instances = [make_instance([2 + t % 5 for t in range(n)]) for n in lengths]
        plan = plan_of(instances)
        tables, lstm = tables_for(cfg, vocab_size=8), fresh_model(cfg, 8, 1).lstm
        directions, gradients = [], []
        real_run = enc._run_direction

        def recording_run(x, plan, direction):
            states, bptt = real_run(x, plan, direction)
            directions.append(states)

            def recording_bptt(dh):
                gradients.append(dh.copy())
                return bptt(dh)
            return states, recording_bptt

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(enc, "_run_direction", recording_run)
            tape = Tape()
            embedded = enc.embed_batch(tape, instances, plan, tables, cfg)
            out = enc.bilstm_encode_batch(tape, embedded, plan, lstm)
            probe = np.random.default_rng(t_steps).uniform(-1, 1, out.shape)
            if token_major:
                ad.backward(tape, ad.sum_all(tape, ad.mul_const(tape, out, probe)))
            else:
                out.grad = probe.copy()   # C-ordered [n x 2u x t_run]
                for _, bwd in reversed(tape._records):
                    bwd()
        u = cfg.hidden_size
        lanes, steps = plan.lanes, plan.steps
        back = plan.lengths[lanes] - 1 - steps
        want = np.zeros((len(lengths), max(lengths), 2 * u))
        want[lanes, steps, :u], want[lanes, back, u:] = directions
        np.testing.assert_array_equal(out.value.swapaxes(1, 2), want)
        g = probe.swapaxes(1, 2)
        np.testing.assert_array_equal(gradients[0], g[lanes, steps, :u])
        np.testing.assert_array_equal(gradients[1], g[lanes, back, u:])

    def test_output_shape(self):
        cfg = tiny_config(time_steps=4)
        out = self.encode(cfg, [make_instance([2, 3, 4, 5])])
        assert out.shape == (1, 6, 4)   # n x 2u x longest true length

    def test_padded_columns_exactly_zero(self):
        # a longer neighbour keeps the batch running past this lane's length
        cfg = tiny_config(time_steps=4)
        inst = make_instance([2, 3])
        out = self.encode(cfg, [inst, make_instance([4, 5, 2, 3])]).value[0]
        np.testing.assert_array_equal(out[:, 2:], np.zeros((6, 2)))
        assert np.abs(out[:, :2]).max() > 0

    def test_single_real_token(self):
        cfg = tiny_config(time_steps=4)
        inst = make_instance([2])
        out = self.encode(cfg, [inst, make_instance([4, 5, 2, 3])]).value[0]
        assert np.abs(out[:, 0]).max() > 0
        np.testing.assert_array_equal(out[:, 1:], np.zeros((6, 3)))

    def test_more_padding_leaves_real_columns_unchanged(self):
        ids = [2, 3, 4]
        short_cfg = tiny_config(time_steps=3)
        long_cfg = tiny_config(time_steps=8)
        short = self.encode(short_cfg, [make_instance(ids)])
        long = self.encode(long_cfg, [make_instance(ids)])
        np.testing.assert_allclose(short.value, long.value, atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_batch_matches_single(self, t_steps, data):
        # lanes are packed by length, so each step's products span the lanes
        # still running. Redrawing the other lanes' tokens at the same lengths
        # keeps every product's width and this lane's place in it, so its
        # columns agree exactly. Encoded alone it agrees to rounding: a
        # one-column product (gemv) sums in another order than gemm
        cfg = tiny_config(time_steps=t_steps)
        tables = tables_for(cfg, vocab_size=8)
        lstm = fresh_model(cfg, 8, 1).lstm
        lengths = data.draw(length_lists(t_steps))

        def draw_instance(length):
            ids = data.draw(st.lists(st.integers(2, 7), min_size=length, max_size=length))
            return make_instance(ids)

        def encode(batch):
            plan = plan_of(batch)
            embedded = enc.embed_batch(None, batch, plan, tables, cfg)
            return enc.bilstm_encode_batch(None, embedded, plan, lstm).value

        instances = [draw_instance(length) for length in lengths]
        batched = encode(instances)
        for j, inst in enumerate(instances):
            real = slice(inst.true_length)
            neighbours = [inst if k == j else draw_instance(length)
                          for k, length in enumerate(lengths)]
            np.testing.assert_array_equal(batched[j], encode(neighbours)[j])
            np.testing.assert_allclose(batched[j, :, real], encode([inst])[0],
                                       rtol=1e-12, atol=1e-15)
            np.testing.assert_array_equal(batched[j, :, inst.true_length:], 0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
    def test_matches_per_gate_reference(self, t_steps, seed, data):
        # embed_batch + bilstm_encode_batch against a padded embedding built
        # in plain numpy from the same tables and the per-gate reference
        cfg = tiny_config(time_steps=t_steps)
        rng = np.random.default_rng(seed)
        tables = tables_for(cfg, vocab_size=8, seed=seed)
        lstm = fresh_model(cfg, 8, rng).lstm
        for p in (tables.word, tables.head_position, tables.tail_position):
            p.value[...] = rng.uniform(-1, 1, p.value.shape)
        for d in (lstm.fwd, lstm.bwd):   # weights large enough to saturate some gates
            for p in (d.w_in, d.w_rec, d.bias):
                p.value[...] = rng.uniform(-1.5, 1.5, p.value.shape)
        lengths = data.draw(length_lists(t_steps))
        instances = [make_instance(rng.integers(2, 8, length),
                                   head=int(rng.integers(t_steps)),
                                   tail=int(rng.integers(t_steps)))
                     for length in lengths]
        plan = enc.BatchPlan.of(lengths)
        fast = enc.bilstm_encode_batch(None, enc.embed_batch(None, instances, plan, tables, cfg),
                                       plan, lstm).value
        ref = reference_bilstm(padded_embedding(instances, tables, cfg), lengths, lstm)
        t_run = max(lengths)
        assert fast.shape == (len(lengths), 2 * cfg.hidden_size, t_run)
        np.testing.assert_array_equal(ref[:, :, t_run:], 0.0)
        ref = ref[:, :, :t_run]
        np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(fast[ref == 0.0], 0.0)

    def test_steps_stop_at_longest_true_length(self, monkeypatch):
        cfg = tiny_config(time_steps=6)
        tables = tables_for(cfg, vocab_size=8)
        lstm = fresh_model(cfg, 8, 1).lstm
        instances = [make_instance([2, 3]), make_instance([4, 5, 6, 7]), make_instance([3])]
        lengths = [inst.true_length for inst in instances]
        calls = []
        real_step = enc.lstm_step

        def counting_step(*args):
            calls.append(1)
            return real_step(*args)

        monkeypatch.setattr(enc, "lstm_step", counting_step)
        plan = enc.BatchPlan.of(lengths)
        out = enc.bilstm_encode_batch(None, enc.embed_batch(None, instances, plan, tables, cfg),
                                      plan, lstm)
        assert len(calls) == 2 * max(lengths)
        assert out.shape == (len(instances), 2 * cfg.hidden_size, max(lengths))

    def test_full_encoder_gradient(self):
        cfg = tiny_config(word_dim=3, position_dim=2, hidden_size=2, time_steps=5,
                          max_distance=3)
        rng = np.random.default_rng(3)
        tables = tables_for(cfg, vocab_size=6, seed=3)
        # healthy magnitudes keep the check clear of the fd noise floor
        for p in (tables.word, tables.head_position, tables.tail_position):
            p.value[...] = rng.uniform(0.2, 0.6, p.value.shape) * rng.choice([-1, 1], p.value.shape)
        lstm = fresh_model(cfg, 8, rng).lstm
        inst = make_instance([2, 3, 4])
        # mixed lengths 3, 1, 4: sorting reorders the lanes, both directions
        # drop lanes after steps 0 and 2, and the reverse direction's mirrored
        # rows put each lane's last token first, so gradients pass through
        # every narrowing of the packed state and both scatters of the output
        mixed = [inst, make_instance([5]), make_instance([4, 2, 5, 3])]
        lengths = [i.true_length for i in mixed]
        assert len(set(lengths)) == len(mixed) and lengths != sorted(lengths, reverse=True)
        params = [tables.word, tables.head_position, tables.tail_position,
                  lstm.fwd.w_in, lstm.fwd.w_rec, lstm.fwd.bias,
                  lstm.bwd.w_in, lstm.bwd.w_rec, lstm.bwd.bias]
        for batch in ([inst], mixed):
            probe = rng.uniform(-1, 1, (len(batch), 4, max(i.true_length for i in batch)))

            plan = plan_of(batch)

            def f():
                tape = Tape()
                embedded = enc.embed_batch(tape, batch, plan, tables, cfg)
                hidden = enc.bilstm_encode_batch(tape, embedded, plan, lstm)
                return tape, ad.sum_all(tape, ad.mul_const(tape, hidden, probe))

            assert finite_diff_check(f, params) < 1e-5


def nyt_batch():
    """33 sentences of the nyt profile, in float32: lengths, u, d_in, dtype."""
    cfg = ModelConfig()
    rng = np.random.default_rng(7)
    lengths = np.clip(np.rint(rng.lognormal(np.log(32), 0.4, 33)), 8, cfg.time_steps)
    d_in = cfg.word_dim + cfg.position_dim
    return lengths.astype(int).tolist(), cfg.hidden_size, d_in, np.float32


class TestConcurrentDirections:
    """The two directions on two threads give the sequential path's bits."""

    @staticmethod
    def encode(lengths, u, d_in, dtype, seed, monkeypatch):
        """Output, ``embedded`` gradient and the six LSTM gradients of one
        forward and backward pass, and the names of the threads that ran
        ``lstm_step``."""
        rng = np.random.default_rng(seed)
        lstm = enc.LstmParams(*(enc.LstmDirection(*(
            Parameter(name, rng.uniform(-0.1, 0.1, shape).astype(dtype))
            for name, shape in (("wi", (4 * u, d_in)), ("wr", (4 * u, u)), ("b", (4 * u, 1)))))
            for _ in range(2)))
        packed = Parameter("packed", rng.uniform(-1, 1, (sum(lengths), d_in)).astype(dtype))
        probe = rng.uniform(-1, 1, (len(lengths), 2 * u, max(lengths))).astype(dtype)
        threads = set()
        real_step = enc.lstm_step

        def noting_step(*args):
            threads.add(threading.current_thread().name)
            return real_step(*args)

        monkeypatch.setattr(enc, "lstm_step", noting_step)
        tape = Tape()
        out = enc.bilstm_encode_batch(tape, packed, enc.BatchPlan.of(lengths), lstm)
        ad.backward(tape, ad.sum_all(tape, ad.mul_const(tape, out, probe)))
        grads = [p.grad for d in (lstm.fwd, lstm.bwd) for p in (d.w_in, d.w_rec, d.bias)]
        return [out.value, packed.grad, *grads], threads

    @pytest.mark.parametrize("shape", ["train_nyt", "tiny"])
    def test_concurrent_equals_sequential_bit_for_bit(self, shape, two_cores, monkeypatch):
        args = nyt_batch() if shape == "train_nyt" else ([3, 1, 4, 4, 2], 3, 2, np.float64)
        calls = two_cores(True)
        together, threads = self.encode(*args, 5, monkeypatch)
        assert calls == [True, True]   # the forward pass and BPTT
        two_cores(False)
        in_turn, alone = self.encode(*args, 5, monkeypatch)
        assert len(threads) == 2 and len(alone) == 1
        for got, want in zip(together, in_turn):
            assert got.dtype == args[-1] and np.abs(want).max() > 0
            np.testing.assert_array_equal(got, want)

    def test_repeats_under_frequent_thread_switches(self, two_cores, monkeypatch):
        # the threads share read-only inputs and the dict that hands each
        # BPTT its half of the output gradient; switching between them every
        # microsecond changes no bit
        args = ([9, 7, 7, 4, 2, 1], 16, 5, np.float64)
        two_cores(False)
        want, _ = self.encode(*args, 3, monkeypatch)
        two_cores(True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                got, threads = self.encode(*args, 3, monkeypatch)
                assert len(threads) == 2
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("stage", ["forward", "backward"])
    def test_worker_exception_reaches_the_caller(self, stage, two_cores, monkeypatch):
        # the worker runs the reverse direction in both passes
        class WorkerError(RuntimeError):
            pass

        real_run = enc._run_direction

        def failing_run(x, plan, direction):
            if direction is lstm.bwd and stage == "forward":
                raise WorkerError(stage)
            states, bptt = real_run(x, plan, direction)
            if direction is not lstm.bwd:
                return states, bptt

            def failing_bptt(dh):
                raise WorkerError(stage)
            return states, failing_bptt

        lstm = fresh_model(tiny_config()).lstm
        packed = Parameter("packed", np.random.default_rng(0).uniform(-1, 1, (5, 6)))
        monkeypatch.setattr(enc, "_run_direction", failing_run)
        two_cores(True)
        running = threading.active_count()
        with pytest.raises(WorkerError, match=stage):
            tape = Tape()
            out = enc.bilstm_encode_batch(tape, packed, enc.BatchPlan.of([3, 2]), lstm)
            ad.backward(tape, ad.sum_all(tape, out))
        assert threading.active_count() == running

    # one direction's multiply-adds over 528 tokens of width 60 are
    # 528 * 4u * (60 + u): under CONCURRENT_MIN_PRODUCT at u = 99, at or
    # over it from u = 100
    SELECTION_LENGTHS = [66] * 8
    SELECTION_WIDTH = 60

    @pytest.mark.parametrize("blas_threads,cpus,u,concurrently", [
        (None, 2, 300, False),    # a BLAS that does not report its threads
        (2, 2, 300, False),       # two BLAS threads per direction need four CPUs
        (2, 3, 300, False),
        (1, 1, 300, False),       # one CPU
        (1, 2, 99, False),        # one direction's work under the product threshold
        (1, 2, 100, True),
        (2, 4, 300, True),
    ])
    def test_selection(self, blas_threads, cpus, u, concurrently, monkeypatch):
        work = sum(self.SELECTION_LENGTHS) * 4 * u * (self.SELECTION_WIDTH + u)
        assert (work >= ad.CONCURRENT_MIN_PRODUCT) is (u >= 100)
        monkeypatch.setattr(ad, "_blas_threads", lambda: blas_threads)
        monkeypatch.setattr(ad, "_usable_cpus", lambda: cpus)
        _, threads = self.encode(self.SELECTION_LENGTHS, u, self.SELECTION_WIDTH, np.float32,
                                 0, monkeypatch)
        assert (len(threads) == 2) is concurrently

    @pytest.mark.parametrize("workload", ["train_synth", "train_nyt"])
    def test_benchmark_shapes_keep_their_path(self, workload, monkeypatch):
        # at the real thresholds, with two cores free: the largest batch the
        # synth profile can draw from SynthSpec's defaults stays on one
        # thread, and a train_nyt batch splits. A synthetic sentence has at
        # most 9 tokens (5 pattern tokens with up to 2 fillers on each side,
        # or 5-9 noise tokens)
        if workload == "train_synth":
            cfg = ModelConfig.from_profile("synth")
            lengths = [9] * (cfg.batch_size * SynthSpec().max_bag_size)
            args = (lengths, cfg.hidden_size, cfg.word_dim + cfg.position_dim, np.float32)
        else:
            args = nyt_batch()
        monkeypatch.setattr(ad, "_two_cores", lambda: True)
        _, threads = self.encode(*args, 5, monkeypatch)
        assert len(threads) == (1 if workload == "train_synth" else 2)
