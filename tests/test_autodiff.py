"""Oracle and property tests for the autodiff core."""

import functools
import inspect
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from relattn import autodiff as ad
from relattn import gradcheck
from relattn import training
from relattn.autodiff import Node, Parameter, ShapeError, Tape, backward, finite_diff_check


def param(value, name="p"):
    return Parameter(name, np.asarray(value, dtype=float))


small_matrices = arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                        elements=st.floats(-50, 50, allow_nan=False))


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(None, Node(np.eye(2)), Node([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.value, [[1.0, 2.0], [3.0, 4.0]])

    def test_row_selection(self):
        out = ad.matmul(None, Node([[1.0, 0.0]]), Node([[5.0], [7.0]]))
        np.testing.assert_array_equal(out.value, [[5.0]])

    def test_hand_oracle(self):
        out = ad.matmul(None, Node([[1.0, 2.0], [3.0, 4.0]]), Node([[2.0], [1.0]]))
        np.testing.assert_array_equal(out.value, [[4.0], [10.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(None, Node(np.ones((2, 3))), Node(np.ones((2, 2))))

    def test_associativity(self):
        rng = np.random.default_rng(0)
        a, b, c = (Node(rng.uniform(-1, 1, (4, 5))), Node(rng.uniform(-1, 1, (5, 3))),
                   Node(rng.uniform(-1, 1, (3, 6))))
        left = ad.matmul(None, ad.matmul(None, a, b), c).value
        right = ad.matmul(None, a, ad.matmul(None, b, c)).value
        np.testing.assert_allclose(left, right, atol=1e-9)


class TestRowSoftmax:
    def test_uniform_over_equal_logits(self):
        out = ad.row_softmax(None, Node([[0.0, 0.0]]))
        np.testing.assert_allclose(out.value, [[0.5, 0.5]])

    def test_hand_oracle(self):
        out = ad.row_softmax(None, Node([[np.log(2.0), 0.0]]))
        np.testing.assert_allclose(out.value, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_no_overflow_on_huge_logits(self):
        with np.errstate(over="raise"):
            out = ad.row_softmax(None, Node([[1000.0, 0.0]]))
        np.testing.assert_allclose(out.value, [[1.0, 0.0]], atol=1e-12)
        assert np.isfinite(out.value).all()

    def test_masked_columns_get_zero_mass(self):
        out = ad.row_softmax(None, Node(np.random.default_rng(1).normal(size=(3, 5))),
                             valid_cols=np.array([True, True, False, True, False]))
        assert out.value[:, 2].max() < 1e-6
        assert out.value[:, 4].max() < 1e-6
        np.testing.assert_allclose(out.value.sum(axis=1), 1.0, atol=1e-12)

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError):
            ad.row_softmax(None, Node(np.zeros((1, 3))), valid_cols=np.zeros(3, dtype=bool))

    @settings(max_examples=60)
    @given(small_matrices)
    def test_rows_always_sum_to_one(self, m):
        out = ad.row_softmax(None, Node(m))
        np.testing.assert_allclose(out.value.sum(axis=1), 1.0, atol=1e-12)


class TestElementwise:
    def test_tanh_zero(self):
        np.testing.assert_array_equal(ad.tanh_map(None, Node([[0.0]])).value, [[0.0]])

    def test_tanh_one(self):
        np.testing.assert_allclose(ad.tanh_map(None, Node([[1.0]])).value,
                                   [[0.7615941559557649]], atol=1e-15)

    def test_relu(self):
        np.testing.assert_array_equal(ad.relu_map(None, Node([[-1.0, 2.0]])).value,
                                      [[0.0, 2.0]])

    def test_relu_gradient_zero_at_zero(self):
        tape = Tape()
        p = param([[0.0, -1.0, 3.0]])
        loss = ad.sum_all(tape, ad.relu_map(tape, p))
        backward(tape, loss)
        np.testing.assert_array_equal(p.grad, [[0.0, 0.0, 1.0]])


class TestFrobeniusPenalty:
    def test_orthonormal_rows_padded(self):
        a = np.zeros((2, 5))
        a[0, 0] = a[1, 1] = 1.0
        assert ad.frobenius_penalty(None, Node(a)).value.item() == 0.0

    def test_duplicate_rows(self):
        out = ad.frobenius_penalty(None, Node([[1.0, 0.0], [1.0, 0.0]]))
        assert out.value.item() == pytest.approx(2.0, abs=1e-12)

    def test_single_scaled_row(self):
        out = ad.frobenius_penalty(None, Node([[2.0, 0.0]]))
        assert out.value.item() == pytest.approx(9.0, abs=1e-12)

    def test_zero_iff_orthonormal(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.normal(size=(6, 3)))
        rows = q.T   # 3 orthonormal rows of length 6
        assert ad.frobenius_penalty(None, Node(rows)).value.item() <= 1e-12
        perturbed = rows + 0.01 * rng.normal(size=rows.shape)
        assert ad.frobenius_penalty(None, Node(perturbed)).value.item() > 0.0


class TestCrossEntropy:
    def test_certain_correct(self):
        assert ad.cross_entropy(None, Node([[1.0, 0.0]]), 0).value.item() == 0.0

    def test_half(self):
        out = ad.cross_entropy(None, Node([[0.5, 0.5]]), 1)
        assert out.value.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_clamped_zero_probability(self):
        out = ad.cross_entropy(None, Node([[0.0, 1.0]]), 0)
        assert out.value.item() == pytest.approx(-np.log(1e-12), abs=1e-9)
        assert np.isfinite(out.value).all()

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            ad.cross_entropy(None, Node([[0.5, 0.5]]), 2)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ad.cross_entropy(None, Node([[0.7, 0.7]]), 0)

    def test_rejects_a_column_for_one_label(self):
        with pytest.raises(ad.ShapeError, match="one row per label"):
            ad.cross_entropy(None, Node([[0.25], [0.75]]), 1)


class TestBackward:
    def test_sum_gives_ones(self):
        tape = Tape()
        w = param(np.random.default_rng(3).normal(size=(3, 4)), "w")
        backward(tape, ad.sum_all(tape, w))
        np.testing.assert_array_equal(w.grad, np.ones((3, 4)))

    def test_penalty_gradient_zero_at_identity(self):
        tape = Tape()
        w = param(np.eye(3), "w")
        backward(tape, ad.frobenius_penalty(tape, w))
        np.testing.assert_array_equal(w.grad, np.zeros((3, 3)))

    def test_rejects_non_scalar(self):
        tape = Tape()
        w = param(np.ones((2, 2)))
        out = ad.tanh_map(tape, w)
        with pytest.raises(ValueError, match="scalar"):
            backward(tape, out)

    def test_backward_twice_doubles_gradients(self):
        tape = Tape()
        rng = np.random.default_rng(4)
        w = param(rng.normal(size=(3, 3)), "w")
        v = param(rng.normal(size=(3, 2)), "v")
        loss = ad.sum_squares(tape, ad.tanh_map(tape, ad.matmul(tape, w, v)))
        backward(tape, loss)
        w_once, v_once = w.grad.copy(), v.grad.copy()
        backward(tape, loss)
        np.testing.assert_array_equal(w.grad, 2.0 * w_once)
        np.testing.assert_array_equal(v.grad, 2.0 * v_once)

    def test_backward_twice_multi_use_parameter(self):
        # a parameter feeding several ops gets several accumulations per pass;
        # doubling then holds to reassociation roundoff
        tape = Tape()
        w = param(np.random.default_rng(4).normal(size=(3, 3)), "w")
        loss = ad.sum_squares(tape, ad.tanh_map(tape, ad.matmul(tape, w, w)))
        backward(tape, loss)
        once = w.grad.copy()
        backward(tape, loss)
        np.testing.assert_allclose(w.grad, 2.0 * once, rtol=1e-14, atol=1e-16)

    def test_unused_branch_gets_no_gradient(self):
        tape = Tape()
        w = param(np.ones((2, 2)), "w")
        used = ad.sum_all(tape, w)
        ad.tanh_map(tape, w)   # dangling op, not connected to the loss
        backward(tape, used)
        np.testing.assert_array_equal(w.grad, np.ones((2, 2)))

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        w = param(rng.uniform(-1, 1, (3, 3)), "w")
        v = param(rng.uniform(-1, 1, (3, 2)), "v")

        def f():
            tape = Tape()
            y = ad.tanh_map(tape, ad.matmul(tape, w, v))
            p = ad.row_softmax(tape, ad.transpose(tape, y))
            loss = ad.add(tape, ad.sum_squares(tape, p), ad.frobenius_penalty(tape, w))
            return tape, loss

        assert finite_diff_check(f, [w, v]) < 1e-5


def plain_accum(node, g):
    # the reference accumulation: every first gradient is a zero fill plus an add
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    node.grad += g


class TestFirstGradientCopy:
    """First gradients copied into a fresh buffer give the leaves what zero-fill-plus-add gives."""

    def assert_matches_plain(self, monkeypatch, build, leaves):
        results = []
        for accum in (ad._accum, plain_accum):
            monkeypatch.setattr(ad, "_accum", accum)
            for leaf in leaves:
                leaf.grad = np.zeros_like(leaf.value) if isinstance(leaf, Parameter) else None
            tape = Tape()
            backward(tape, build(tape))
            results.append([leaf.grad.copy() for leaf in leaves])
        for leaf, copied, plain in zip(leaves, *results):
            assert np.abs(plain).max() > 0
            np.testing.assert_array_equal(copied, plain, err_msg=repr(leaf))

    def test_node_used_twice(self, monkeypatch):
        rng = np.random.default_rng(20)
        w, v = param(rng.uniform(-1, 1, (3, 3)), "w"), param(rng.uniform(-1, 1, (3, 4)), "v")
        leaf = Node(rng.uniform(-1, 1, (3, 4)))
        probe = rng.uniform(-1, 1, (3, 4))

        def build(t):
            # add(x, x) hands one gradient array to both of its operands
            x = ad.tanh_map(t, ad.matmul(t, w, v))
            doubled = ad.add(t, ad.add(t, x, x), ad.add(t, leaf, leaf))
            return ad.add(t, ad.sum_all(t, ad.mul_const(t, doubled, probe)),
                          ad.sum_all(t, ad.mul_const(t, x, x.value)))

        self.assert_matches_plain(monkeypatch, build, [w, v, leaf])

    def test_f_ordered_value_through_blocked_sum_squares(self, monkeypatch):
        rng = np.random.default_rng(23)
        w, v = param(rng.uniform(-1, 1, (3, 3)), "w"), param(rng.uniform(-1, 1, (3, 2)), "v")

        def build(t):
            p = ad.row_softmax(t, ad.transpose(t, ad.tanh_map(t, ad.matmul(t, w, v))))
            assert p.value.flags.f_contiguous and not p.value.flags.c_contiguous
            return ad.sum_squares(t, p, w)

        self.assert_matches_plain(monkeypatch, build, [w, v])

    def test_first_gradient_takes_the_layout_of_the_value(self):
        g = np.arange(12.0).reshape(3, 4)
        copied = Node(np.zeros((3, 4)))
        ad._accum(copied, g)
        assert copied.grad is not g and np.array_equal(copied.grad, g)
        f_ordered = Node(np.zeros((4, 3)).T)
        ad._accum(f_ordered, g)
        assert f_ordered.grad.flags.f_contiguous and np.array_equal(f_ordered.grad, g)
        narrow = Node(np.zeros((3, 4), dtype=np.float32))
        ad._accum(narrow, g)
        ad._accum(narrow, g)
        assert narrow.grad.dtype == np.float32
        np.testing.assert_array_equal(narrow.grad, 2.0 * g)


class TestGradientRelease:
    def test_only_parameters_and_untaped_leaves_keep_gradients(self):
        rng = np.random.default_rng(24)
        w = param(rng.uniform(-1, 1, (3, 3)), "w")
        leaf = Node(rng.uniform(-1, 1, (3, 2)))
        tape = Tape()
        h = ad.tanh_map(tape, ad.matmul(tape, w, leaf))
        loss = ad.add(tape, ad.sum_squares(tape, h), ad.sum_all(tape, leaf))
        backward(tape, loss)
        assert len(tape) == 5 and all(out.grad is None for out, _ in tape._records)
        assert np.abs(w.grad).max() > 0 and np.abs(leaf.grad).max() > 0

    @pytest.mark.parametrize("shape,dtype", [((1024, 512), np.float64),
                                             ((1000, 1100), np.float32)])
    def test_sum_squares_backward_needs_one_row_block(self, shape, dtype, monkeypatch):
        # no parameter-sized temporaries: the scratch is one block of rows,
        # and the result is still (2 * value) * g bit for bit
        monkeypatch.setattr(ad, "_two_cores", lambda: False)
        w = Parameter("w", np.random.default_rng(25).normal(size=shape).astype(dtype))
        assert w.value.nbytes >= 4 * 2**20
        tape = Tape()
        loss = ad.mul_const(tape, ad.sum_squares(tape, w), 0.3)
        tracemalloc.start()
        try:
            backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = max(1, ad.ROW_BLOCK // w.value[0].size) * w.value[0].nbytes
        assert block <= w.value.nbytes // 8
        assert peak < block + 16 * 1024
        np.testing.assert_array_equal(w.grad, 2.0 * w.value * np.full((1, 1), 0.3, dtype))

    @pytest.mark.parametrize("shape,dtype", [((1024, 512), np.float64),
                                             ((1000, 1100), np.float32)])
    def test_sum_squares_backward_needs_one_row_block_per_thread(self, shape, dtype,
                                                                 two_cores):
        # the two-core path: each thread's scratch is one block of rows
        w = Parameter("w", np.random.default_rng(25).normal(size=shape).astype(dtype))
        calls = two_cores(True)
        tape = Tape()
        loss = ad.mul_const(tape, ad.sum_squares(tape, w), 0.3)
        tracemalloc.start()
        try:
            backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [True, True]   # the value's dots, then the gradient's blocks
        block = max(1, ad.ROW_BLOCK // w.value[0].size) * w.value[0].nbytes
        assert peak < 2 * block + 16 * 1024
        np.testing.assert_array_equal(w.grad, 2.0 * w.value * np.full((1, 1), 0.3, dtype))

    def test_matmul_weight_gradient_adds_row_blocks(self):
        # word_mlp_weight's shape at the nyt profile against a 33-instance
        # batch: the weight's gradient is added block by block, bit for bit
        # the whole product added at once, with no weight-sized scratch
        rng = np.random.default_rng(26)
        w = Parameter("w", rng.uniform(-0.1, 0.1, (1000, 5400)).astype(np.float32))
        w.grad[...] = rng.uniform(-1, 1, w.shape)
        before = w.grad.copy()
        flat = Node(rng.uniform(-1, 1, (5400, 33)).astype(np.float32))
        probe = rng.uniform(-1, 1, (1000, 33)).astype(np.float32)
        tape = Tape()
        loss = ad.sum_all(tape, ad.mul_const(tape, ad.matmul(tape, w, flat), probe))
        tracemalloc.start()
        try:
            backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < w.value.nbytes // 4
        before += probe @ flat.value.T
        np.testing.assert_array_equal(w.grad, before)
        np.testing.assert_array_equal(flat.grad, w.value.T @ probe)


class TestSquaredNorm:
    # Bound on the error relative to a float64-accumulated sum. Measured on
    # float32 tensors of 5M+ entries: at most 3.4e-8 for the blocked dots,
    # and 1.5e-5 for one float32 dot over a whole tensor, which this rejects.
    BOUND = 1e-6

    @pytest.fixture(scope="class")
    def tensors(self):
        rng = np.random.default_rng(31)
        c_ordered = rng.standard_normal((1000, 5400), dtype=np.float32)
        f_ordered = np.asfortranarray(rng.uniform(-0.05, 0.05, (2500, 2400)).astype(np.float32))
        assert f_ordered.flags.f_contiguous and not f_ordered.flags.c_contiguous
        return [c_ordered, f_ordered]

    @staticmethod
    def reference(a):
        flat = a.astype(np.float64).ravel()
        return float(np.dot(flat, flat))

    def test_each_tensor_without_a_squared_copy(self, tensors):
        for a in tensors:
            assert a.size >= 5_000_000
            tracemalloc.start()
            try:
                got = ad.squared_norm(a)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024
            assert abs(got - self.reference(a)) <= self.BOUND * self.reference(a)

    def test_sum_squares_value(self, tensors):
        got = ad.sum_squares(None, *(Node(a) for a in tensors)).value
        want = sum(self.reference(a) for a in tensors)
        assert got.dtype == np.float32
        assert abs(got.item() - want) <= self.BOUND * want

    def test_clip_gradients_norm(self, tensors):
        # clip_gradients reads only ``grad``; max_norm 0 leaves it unscaled
        params = [SimpleNamespace(grad=a) for a in tensors]
        want = np.sqrt(sum(self.reference(a) for a in tensors))
        norm = training.clip_gradients(params, 0.0)
        assert abs(norm - want) <= self.BOUND * want


class TestTwoCores:
    """The one owner of the second core: its selection rule and its thread."""

    @pytest.mark.parametrize("blas_threads,cpus,selected", [
        (None, 2, False),    # a BLAS that does not report its threads
        (2, 2, False),       # two BLAS threads per thread need four CPUs
        (2, 3, False),
        (1, 1, False),       # one CPU
        (1, 2, True),
        (2, 4, True),
    ])
    def test_selection(self, blas_threads, cpus, selected, monkeypatch):
        monkeypatch.setattr(ad, "_blas_threads", lambda: blas_threads)
        monkeypatch.setattr(ad, "_usable_cpus", lambda: cpus)
        assert ad._two_cores() is selected

    def test_blas_threads_are_a_count_or_unknown(self):
        threads = ad._blas_threads()
        assert threads is None or threads >= 1
        assert ad._usable_cpus() >= 1

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        class WorkerError(RuntimeError):
            pass

        def upper():
            raise WorkerError("on the worker")

        monkeypatch.setattr(ad, "_two_cores", lambda: True)
        ran_here = []
        running = threading.enumerate()
        with pytest.raises(WorkerError, match="on the worker"):
            ad.halves([lambda: ran_here.append(threading.current_thread().name), upper], 1, 1)
        assert ran_here == [threading.current_thread().name]
        assert threading.enumerate() == running   # the worker thread is joined

    def test_a_split_after_a_worker_raised_splits_again(self, two_cores):
        def fail():
            raise RuntimeError("on the worker")

        calls = two_cores(True)
        with pytest.raises(RuntimeError):
            ad.halves([lambda: None, fail], 1, 1)
        threads = ad.halves([lambda: threading.current_thread().name] * 2, 1, 1)
        assert threads == [threading.current_thread().name, "relattn-worker"]
        assert calls == [True]   # the split that raised records nothing

    def test_one_split_at_a_time(self, two_cores):
        # a split's tasks that split again run their own tasks in turn, on
        # their own thread: one worker at most, and one recorded split
        def workers():
            return [t.name for t in threading.enumerate()].count("relattn-worker")

        def inner(name):
            seen.append((threading.current_thread().name, workers()))
            return name

        def outer(name):
            seen.append((threading.current_thread().name, workers()))
            return ad.halves([functools.partial(inner, name + "1"),
                               functools.partial(inner, name + "2")], 1, 1)

        calls = two_cores(True)
        seen = []
        results = ad.halves([functools.partial(outer, "a"), functools.partial(outer, "b")], 1, 1)
        assert results == [["a1", "a2"], ["b1", "b2"]]
        assert calls == [True]
        assert len(seen) == 6 and all(count <= 1 for _, count in seen)
        here = threading.current_thread().name
        assert sorted(name for name, _ in seen) == sorted([here] * 3 + ["relattn-worker"] * 3)
        assert not ad._split.locked()

    def test_uneven_halves_keep_task_order(self, two_cores):
        # five tasks: the first three on this thread, the last two on the
        # worker, and one result per task in task order
        def task(k):
            ran_on[k] = threading.current_thread().name
            return k * k

        calls = two_cores(True)
        ran_on = {}
        assert ad.halves([functools.partial(task, k) for k in range(5)], 1, 1) == [0, 1, 4, 9, 16]
        assert calls == [True]
        here = threading.current_thread().name
        assert ran_on == {0: here, 1: here, 2: here, 3: "relattn-worker", 4: "relattn-worker"}


class TestSplitSites:
    """Each sweep and product gives the same bits on two threads as
    on one, at one block (no split), two blocks, and uneven halves."""

    BLOCKS = [1, 2, 5 / 2]

    @staticmethod
    def column(blocks, seed, dtype=np.float32):
        """A ``[entries x 1]`` array of about ``blocks`` row blocks."""
        rows = int(blocks * ad.ROW_BLOCK)
        return np.random.default_rng(seed).normal(size=(rows, 1)).astype(dtype)

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_squared_norm(self, blocks, two_cores):
        a = self.column(blocks, 40)
        norms = []
        for on in (False, True):
            calls = two_cores(on)
            norms.append(ad.squared_norm(a))
            assert calls == ([True] if on and blocks > 1 else [])
        assert norms[0] == norms[1]

    def test_squared_norm_adds_the_blocks_in_memory_order(self, two_cores):
        # three blocks whose dots, 2, 2**54 and 2, are exact; in memory
        # order they sum to 2**54 (2**54 + 2 rounds to even), with the
        # upper half first to 2**54 + 4
        a = np.zeros((3, ad.ROW_BLOCK))
        a[0, :2] = a[2, :2] = 1.0
        a[1, 0] = 2.0 ** 27
        calls = two_cores(True)
        assert ad.squared_norm(a.reshape(-1, 1)) == 2.0 ** 54
        assert calls == [True]

    @pytest.mark.parametrize("rows", [1, 2, 33])
    def test_zero_grad(self, rows, two_cores):
        p = Parameter("p", np.zeros((rows, 700), np.float32))
        for on in (False, True):
            p.grad[...] = 1.5
            calls = two_cores(on)
            p.zero_grad()
            assert calls == ([True] if on and rows > 1 else [])
            assert not p.grad.any()

    @pytest.mark.parametrize("grad_clip", [0.0, 0.5])
    def test_clip_gradients(self, grad_clip, two_cores):
        grads = [self.column(5 / 2, 41), self.column(1 / 4, 42)]
        results = []
        for on in (False, True):
            params = [Parameter(f"p{i}", np.zeros_like(g), grad=g.copy())
                      for i, g in enumerate(grads)]
            calls = two_cores(on)
            norm = training.clip_gradients(params, grad_clip)
            assert calls == ([True] if on else [])
            results.append((norm, [p.grad for p in params]))
        norm = results[0][0]
        assert results[1][0] == norm and (not grad_clip or norm > grad_clip)
        for g, off, on in zip(grads, results[0][1], results[1][1]):
            # both paths scale as the plain formula does
            np.testing.assert_array_equal(off, g * (grad_clip / norm) if grad_clip else g)
            np.testing.assert_array_equal(on, off)

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_sum_squares(self, blocks, two_cores):
        value = self.column(blocks, 43)
        results = []
        for on in (False, True):
            w = Parameter("w", value.copy())
            w.grad[...] = 0.25
            calls = two_cores(on)
            tape = Tape()
            loss = ad.mul_const(tape, ad.sum_squares(tape, w), 0.3)
            backward(tape, loss)
            # the value's dots, then the gradient's blocks
            assert calls == ([True, True] if on and blocks > 1 else [])
            results.append((loss.value, w.grad))
        np.testing.assert_array_equal(results[1][0], results[0][0])
        np.testing.assert_array_equal(results[1][1], results[0][1])

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_row_blocked_weight_gradient(self, blocks, two_cores):
        cols = 1024   # PRODUCT_BLOCK // cols rows a block
        rows = int(blocks * ad.PRODUCT_BLOCK // cols)
        rng = np.random.default_rng(44)
        value = rng.uniform(-0.1, 0.1, (rows, cols)).astype(np.float32)
        start = rng.uniform(-1, 1, value.shape).astype(np.float32)
        x = rng.uniform(-1, 1, (cols, 7)).astype(np.float32)
        probe = rng.uniform(-1, 1, (rows, 7)).astype(np.float32)
        results = []
        for on in (False, True):
            w, b = Parameter("w", value, grad=start.copy()), Node(x)
            calls = two_cores(on)
            tape = Tape()
            loss = ad.sum_all(tape, ad.mul_const(tape, ad.matmul(tape, w, b), probe))
            backward(tape, loss)
            # the row-blocked forward product, then the record's two
            # gradients; the row blocks of each run in turn on its thread
            assert calls == ([True] * (blocks > 1) + [True] if on else [])
            results.append((w.grad, b.grad))
        for got, want in zip(results[1], results[0]):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("above", [False, True])
    def test_gradient_pair_work(self, above, two_cores, monkeypatch):
        # the record's work is both gradients' multiply-adds, 2 * g.size * k
        rng = np.random.default_rng(46)
        w = Parameter("w", rng.uniform(-1, 1, (30, 40)).astype(np.float32))
        x = Node(rng.uniform(-1, 1, (40, 20)).astype(np.float32))
        calls = two_cores(True)
        monkeypatch.setattr(ad, "CONCURRENT_MIN_PRODUCT", 2 * 30 * 20 * 40 + (not above))
        tape = Tape()
        backward(tape, ad.sum_all(tape, ad.matmul(tape, w, x)))
        assert calls == ([True] if above else [])

    @pytest.mark.parametrize("on", [False, True])
    def test_row_blocked_product(self, on, two_cores):
        # word_mlp_weight's forward at the nyt profile against a 33-instance
        # batch: above the threshold on one core or two, one product per row
        # block, bit for bit the whole product
        rng = np.random.default_rng(47)
        x = rng.uniform(-0.1, 0.1, (1000, 5400)).astype(np.float32)
        y = rng.uniform(-1, 1, (5400, 33)).astype(np.float32)
        calls = two_cores(on)
        assert len(x) > ad.PRODUCT_BLOCK // 5400   # rows a block
        np.testing.assert_array_equal(ad._product(x, y), x @ y)
        assert calls == ([True] if on else [])

    @pytest.mark.parametrize("leaf", ["parameter", "node"])
    def test_product_of_a_node_with_itself(self, leaf, two_cores):
        # both gradients add into one buffer, one after the other: never a
        # split, even at thresholds of 0, which any work reaches
        rng = np.random.default_rng(48)
        value, g = rng.uniform(-1, 1, (2, 6, 6))
        a = Parameter("a", value) if leaf == "parameter" else Node(value)
        calls = two_cores(True)
        assert ad.CONCURRENT_MIN_PRODUCT == ad.CONCURRENT_MIN_ENTRIES == 0
        tape = Tape()
        backward(tape, ad.sum_all(tape, ad.mul_const(tape, ad.matmul(tape, a, a), g)))
        assert calls == []
        np.testing.assert_allclose(a.grad, g @ a.value.T + a.value.T @ g, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("batch", [1, 2, 33])
    def test_stacked_product(self, batch, two_cores):
        # a 2-D weight times a stack, as word attention's first product
        rng = np.random.default_rng(45)
        value = rng.uniform(-0.5, 0.5, (30, 40)).astype(np.float32)
        x = rng.uniform(-1, 1, (batch, 40, 20)).astype(np.float32)
        probe = rng.uniform(-1, 1, (batch, 30, 20)).astype(np.float32)
        results = []
        for on in (False, True):
            w, b = Parameter("w", value.copy()), Node(x)
            tape = Tape()
            calls = two_cores(on)
            out = ad.matmul(tape, w, b)
            backward(tape, ad.sum_all(tape, ad.mul_const(tape, out, probe)))
            # the forward product, then the record's two gradients: the
            # weight's tensordot and the stack's, whose entries run in turn
            assert calls == ([True] * (batch > 1) + [True] if on else [])
            results.append((out.value, b.grad, w.grad))
        for got, want in zip(results[1], results[0]):
            assert np.abs(want).max() > 0
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(results[0][0], value @ x)

    @pytest.mark.parametrize("batch", [1, 2, 33])
    def test_stacked_product_is_one_call_per_half(self, batch, two_cores, monkeypatch):
        # one np.matmul per half of the stack, not one per entry, which
        # costs a call per instance at synth shapes; a one-entry stack is
        # one task, never an empty one
        rng = np.random.default_rng(49)
        w = rng.uniform(-0.5, 0.5, (30, 40)).astype(np.float32)
        x = rng.uniform(-1, 1, (batch, 40, 20)).astype(np.float32)
        calls = two_cores(True)
        noting_halves, tasks = ad.halves, []

        def counting_halves(part, work, least=None):
            tasks.append(len(part))
            return noting_halves(part, work, least)

        monkeypatch.setattr(ad, "halves", counting_halves)
        np.testing.assert_array_equal(ad._product(w, x), w @ x)
        assert tasks == [min(batch, 2)]
        assert calls == ([True] if batch > 1 else [])


class TestFiniteDiffCheck:
    def test_quadratic_form(self):
        w = param(np.random.default_rng(6).uniform(0.5, 2.0, (3, 3)), "w")
        assert finite_diff_check(lambda: (t := Tape(), ad.sum_squares(t, w)), [w]) < 1e-7

    def test_constant_function(self):
        w = param(np.ones((2, 2)), "w")

        def f():
            tape = Tape()
            return tape, ad.mul_const(tape, ad.sum_all(tape, w), 0.0)

        assert finite_diff_check(f, [w]) == 0.0

    def test_requires_float64(self):
        w = Parameter("w", np.ones((2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="float64"):
            finite_diff_check(lambda: (t := Tape(), ad.sum_all(t, w)), [w])

    def test_detects_injected_sign_flip(self):
        # an op with a deliberately wrong backward rule must be flagged
        def broken_tanh(tape, a):
            y = np.tanh(a.value)
            out = Node(y)
            def bwd():
                ad._accum(a, -out.grad * (1.0 - y * y))   # sign flipped
            tape.record(out, bwd)
            return out

        w = param(np.random.default_rng(7).uniform(0.2, 0.8, (2, 2)), "w")

        def f():
            tape = Tape()
            return tape, ad.sum_all(tape, broken_tanh(tape, w))

        assert finite_diff_check(f, [w]) > 0.1


class TestParameter:
    def test_zero_grad(self):
        p = param(np.ones((2, 2)))
        p.grad += 3.0
        p.zero_grad()
        np.testing.assert_array_equal(p.grad, np.zeros((2, 2)))

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            Node(np.ones(3))

    def test_adam_slots_match_shape(self):
        p = param(np.ones((2, 3)))
        assert p.m.shape == (2, 3) and p.s.shape == (2, 3) and p.step == 0

    def test_value_is_the_callers_array(self):
        # callers hand over an array they have just made: it is kept, not copied
        arr = np.ones((2, 3))
        assert np.shares_memory(Parameter("p", arr).value, arr)


class TestGradcheckCoverage:
    """``relattn gradcheck`` keeps one entry per taped op.

    A taped op is a public ``autodiff`` function that takes the tape first and
    returns a Node (``backward`` takes the tape too, but replays it). Its
    entries are named ``<op>`` or ``<op>_<variant>``; ``sum_all`` needs none,
    as every entry reduces its graph through it.
    """

    EXEMPT = {"sum_all"}

    @staticmethod
    def taped_ops():
        ops = set()
        for name, fn in vars(ad).items():
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != ad.__name__:
                continue
            sig = inspect.signature(fn)
            if list(sig.parameters)[:1] == ["tape"] and sig.return_annotation == "Node":
                ops.add(name)
        return ops

    @staticmethod
    def op_of_entry():
        """Each op entry's op: the longest op name it equals or extends by ``_``."""
        ops = TestGradcheckCoverage.taped_ops()
        pipelines = {r.name for r in gradcheck.pipeline_checks()}
        entries = {r.name for r in gradcheck.op_checks()} - pipelines
        return {entry: max((op for op in ops if entry == op or entry.startswith(op + "_")),
                           key=len, default=None)
                for entry in entries}

    def test_taped_ops_found(self):
        assert {"matmul", "mul_const", "mean_rows", "sum_all"} <= self.taped_ops()
        assert "backward" not in self.taped_ops()

    def test_every_op_has_an_entry(self):
        covered = set(self.op_of_entry().values())
        assert sorted(self.taped_ops() - self.EXEMPT - covered) == []

    def test_every_entry_names_an_op(self):
        assert sorted(e for e, op in self.op_of_entry().items() if op is None) == []
