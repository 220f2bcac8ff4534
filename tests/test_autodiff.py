"""Oracle and property tests for the autodiff core."""

import ctypes
import functools
import inspect
import threading
import tracemalloc
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from relattn import autodiff as ad
from relattn import gradcheck
from relattn import training
from relattn import word_attention as wa
from relattn.autodiff import Node, Parameter, ShapeError, Tape, backward, finite_diff_check
from relattn.config import ModelConfig
from relattn.data import Bag, Instance
from relattn.model import Model


def param(value, name="p"):
    return Parameter(name, np.asarray(value, dtype=float))


def loss_of(tape, probabilities, labels, attentions=None, decayed=None,
            penalty_coef=0.0, l2_coef=0.0):
    """The loss record, ``training.objective``, and its value alone."""
    return training.objective(tape, probabilities, labels, attentions, decayed,
                              penalty_coef, l2_coef)[0]


def l2_loss(tape, leaf, coef=1.0):
    """``coef·‖leaf‖²`` through the loss record: its one probability is 1, so
    the cross-entropy term is exactly 0 and the loss keeps ``leaf``'s dtype."""
    return loss_of(tape, Node(np.ones((1, 1), leaf.value.dtype)), [0], decayed=leaf,
                   l2_coef=coef)


def penalty_of(rows):
    return wa.attention_penalty(np.asarray(rows, dtype=float))[0].item()


small_matrices = arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                        elements=st.floats(-50, 50, allow_nan=False))


class TestMatmul:
    """``_product``, the matrix product of every record's forward pass."""

    def test_identity(self):
        out = ad._product(np.eye(2), np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out, [[1.0, 2.0], [3.0, 4.0]])

    def test_row_selection(self):
        out = ad._product(np.array([[1.0, 0.0]]), np.array([[5.0], [7.0]]))
        np.testing.assert_array_equal(out, [[5.0]])

    def test_hand_oracle(self):
        out = ad._product(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[2.0], [1.0]]))
        np.testing.assert_array_equal(out, [[4.0], [10.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ad._product(np.ones((2, 3)), np.ones((2, 2)))

    def test_associativity(self):
        rng = np.random.default_rng(0)
        a, b, c = (rng.uniform(-1, 1, (4, 5)), rng.uniform(-1, 1, (5, 3)),
                   rng.uniform(-1, 1, (3, 6)))
        left = ad._product(ad._product(a, b), c)
        right = ad._product(a, ad._product(b, c))
        np.testing.assert_allclose(left, right, atol=1e-9)


def attention_of(x, valid=None, scale=1.0):
    """The 2-D attention record's rows for logits ``scale * tanh(x)``: its
    weights are the identity and ``scale`` times it."""
    x = np.asarray(x, dtype=float)
    eye = np.eye(len(x))
    return ad.attention(None, Node(x), Node(eye), Node(scale * eye), valid).value


class TestRowSoftmax:
    """The row softmax of the 2-D attention record."""

    def test_uniform_over_equal_logits(self):
        np.testing.assert_allclose(attention_of([[0.0, 0.0]]), [[0.5, 0.5]])

    def test_hand_oracle(self):
        out = attention_of([[np.arctanh(np.log(2.0)), 0.0]])
        np.testing.assert_allclose(out, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_no_overflow_on_huge_logits(self):
        with np.errstate(over="raise"):
            out = attention_of([[20.0, 0.0]], scale=1000.0)   # logits 1000 and 0
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)
        assert np.isfinite(out).all()

    def test_masked_columns_get_zero_mass(self):
        out = attention_of(np.random.default_rng(1).normal(size=(3, 5)),
                           valid=np.array([True, True, False, True, False]))
        assert out[:, 2].max() < 1e-6
        assert out[:, 4].max() < 1e-6
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError, match="every column is masked out"):
            attention_of(np.zeros((1, 3)), valid=np.zeros(3, dtype=bool))

    def test_overlapping_masks_on_a_2d_x_rejected(self):
        # backward adds into x's kept columns with one indexed +=, which
        # keeps only one of a repeated column's additions
        masks = np.array([[[True, True, False]], [[False, True, True]]])
        with pytest.raises(ValueError, match="two masks keep one column"):
            attention_of(np.zeros((1, 3)), valid=masks)

    @settings(max_examples=60)
    @given(small_matrices)
    def test_rows_always_sum_to_one(self, m):
        out = attention_of(m, scale=50.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


class TestElementwise:
    """The ReLU of word attention's MLP record, through identity weights."""

    @staticmethod
    def identity_mlp(width):
        return wa.WordAttentionParams(None, None, param(np.eye(width), "w"),
                                      param(np.zeros((width, 1)), "b"))

    def test_relu(self):
        out = wa.flatten_project(None, Node([[-1.0, 2.0]]), self.identity_mlp(2))
        np.testing.assert_array_equal(out.value, [[0.0], [2.0]])

    def test_relu_gradient_zero_at_zero(self):
        tape = Tape()
        p = param([[0.0, -1.0, 3.0]])
        loss = ad.inner(tape, wa.flatten_project(tape, p, self.identity_mlp(3)), 1.0)
        backward(tape, loss)
        np.testing.assert_array_equal(p.grad, [[0.0, 0.0, 1.0]])


class TestInner:
    """``inner``, the scalar probe: ``⟨a, const⟩`` as a ``[1 x 1]`` node."""

    def test_value_is_the_sum_of_products_in_the_nodes_dtype(self):
        rng = np.random.default_rng(33)
        a = rng.uniform(-1, 1, (3, 4)).astype(np.float32)
        const = rng.uniform(-1, 1, (3, 4))
        out = ad.inner(None, Node(a), const)
        assert out.shape == (1, 1) and out.value.dtype == np.float32
        assert out.value.item() == np.float32((a * const).sum())

    @pytest.mark.parametrize("const", [2.5, np.array([[[1.0, -2.0, 0.5, 3.0]]])],
                             ids=["scalar", "row"])
    def test_gradient_broadcasts_the_const(self, const):
        a = Parameter("a", np.ones((2, 3, 4), np.float32))
        tape = Tape()
        backward(tape, ad.inner(tape, a, const))
        assert a.grad.dtype == np.float32
        np.testing.assert_array_equal(a.grad, np.broadcast_to(const, (2, 3, 4)))

    def test_rejects_a_const_that_broadcasts_the_node_up(self):
        with pytest.raises(ShapeError, match="does not broadcast"):
            ad.inner(None, Node(np.ones((3, 4))), np.ones((2, 3, 4)))


class TestFrobeniusPenalty:
    """The squared Frobenius distance from orthonormal rows, ``attention_penalty``."""

    def test_orthonormal_rows_padded(self):
        a = np.zeros((2, 5))
        a[0, 0] = a[1, 1] = 1.0
        assert penalty_of(a) == 0.0

    def test_duplicate_rows(self):
        assert penalty_of([[1.0, 0.0], [1.0, 0.0]]) == pytest.approx(2.0, abs=1e-12)

    def test_single_scaled_row(self):
        assert penalty_of([[2.0, 0.0]]) == pytest.approx(9.0, abs=1e-12)

    def test_zero_iff_orthonormal(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.normal(size=(6, 3)))
        rows = q.T   # 3 orthonormal rows of length 6
        assert penalty_of(rows) <= 1e-12
        perturbed = rows + 0.01 * rng.normal(size=rows.shape)
        assert penalty_of(perturbed) > 0.0


class TestCrossEntropy:
    """The loss record's cross-entropy term: the penalty and L2 off."""

    def test_certain_correct(self):
        assert loss_of(None, Node([[1.0, 0.0]]), 0).value.item() == 0.0

    def test_half(self):
        out = loss_of(None, Node([[0.5, 0.5]]), 1)
        assert out.value.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_clamped_zero_probability(self):
        out = loss_of(None, Node([[0.0, 1.0]]), 0)
        assert out.value.item() == pytest.approx(-np.log(1e-12), abs=1e-9)
        assert np.isfinite(out.value).all()

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            loss_of(None, Node([[0.5, 0.5]]), 2)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            loss_of(None, Node([[0.7, 0.7]]), 0)

    def test_rejects_a_column_for_one_label(self):
        with pytest.raises(ad.ShapeError, match="one row per label"):
            loss_of(None, Node([[0.25], [0.75]]), 1)


class TestBackward:
    def test_sum_gives_ones(self):
        tape = Tape()
        w = param(np.random.default_rng(3).normal(size=(3, 4)), "w")
        backward(tape, ad.inner(tape, w, 1.0))
        np.testing.assert_array_equal(w.grad, np.ones((3, 4)))

    def test_penalty_gradient_zero_at_identity(self):
        tape = Tape()
        w = param(np.eye(3), "w")
        backward(tape, loss_of(tape, Node([[1.0, 0.0]]), 0, w, penalty_coef=1.0))
        np.testing.assert_array_equal(w.grad, np.zeros((3, 3)))

    def test_rejects_non_scalar(self):
        tape = Tape()
        w = param(np.ones((2, 2)))
        with pytest.raises(ValueError, match="scalar"):
            backward(tape, w)

    def test_backward_consumes_the_tape(self):
        # each rule runs with the records before it still on the tape and
        # the records after it gone, and the replay leaves no record
        tape = Tape()
        rng = np.random.default_rng(4)
        w = param(rng.normal(size=(3, 3)), "w")
        v = param(rng.normal(size=(3, 2)), "v")
        rows = param(rng.normal(size=(2, 3)), "rows")
        probe = rng.normal(size=(2, 2))
        loss = ad.inner(tape, ad.attention(tape, v, w, rows), probe)
        assert len(tape) == 2
        seen = []

        def noting(fn):
            def rule():
                seen.append(len(tape))
                fn()
            return rule
        tape._records = [(out, noting(fn)) for out, fn in tape._records]
        backward(tape, loss)
        assert seen == [1, 0] and len(tape) == 0
        assert all(np.abs(p.grad).max() > 0 for p in (w, v, rows))

    def test_second_backward_raises(self):
        tape = Tape()
        rng = np.random.default_rng(4)
        w = param(rng.normal(size=(3, 3)), "w")
        v, rows = Node(rng.normal(size=(3, 2))), Node(rng.normal(size=(2, 3)))
        loss = loss_of(tape, ad.attention(tape, v, w, rows), [0, 1], w, penalty_coef=1.0)
        backward(tape, loss)
        once = w.grad.copy()
        with pytest.raises(ValueError, match="^backward: this tape was already replayed"):
            backward(tape, loss)
        np.testing.assert_array_equal(w.grad, once)

    def test_a_rules_saved_arrays_die_when_it_returns(self):
        # the second record's saved array is freed before the first rule runs
        tape = Tape()
        x = param([[1.0, 2.0]], "x")
        first = wa.flatten_project(tape, x, TestElementwise.identity_mlp(2))
        saved = np.array([[2.0], [3.0]])
        alive = weakref.ref(saved)
        loss = ad.inner(tape, first, saved)
        del saved
        real_rule = tape._records[0][1]

        def rule():
            assert alive() is None
            real_rule()
        tape._records[0] = (first, rule)
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [[2.0, 3.0]])

    def test_unused_branch_gets_no_gradient(self):
        tape = Tape()
        w = param(np.ones((2, 2)), "w")
        used = ad.inner(tape, w, 1.0)
        ad.inner(tape, w, 2.0)   # dangling op, not connected to the loss
        backward(tape, used)
        np.testing.assert_array_equal(w.grad, np.ones((2, 2)))

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        w = param(rng.uniform(-1, 1, (3, 3)), "w")
        v = param(rng.uniform(-1, 1, (3, 2)), "v")
        rows = param(rng.uniform(-1, 1, (2, 3)), "rows")

        def f():
            # every term of the loss record: two probability rows, one per
            # label, the penalty of w and L2 of v
            tape = Tape()
            p = ad.attention(tape, v, w, rows)
            return tape, loss_of(tape, p, [1, 0], w, v, penalty_coef=1.0, l2_coef=0.5)

        assert finite_diff_check(f, [w, v, rows]) < 1e-5


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
        rows = param(rng.uniform(-1, 1, (3, 3)), "rows")

        def build(t):
            # the loss record hands x two gradients, as probabilities and as
            # attention rows; the leaf is L2's input
            x = ad.attention(t, v, w, rows)
            return loss_of(t, x, [0, 2, 3], x, leaf, penalty_coef=1.0, l2_coef=1.0)

        self.assert_matches_plain(monkeypatch, build, [w, v, rows, leaf])

    def test_f_ordered_value_through_blocked_sum_squares(self, monkeypatch):
        # the loss record's L2 term over an F-ordered value, by row blocks
        rng = np.random.default_rng(23)
        w = param(rng.uniform(-1, 1, (3, 3)), "w")
        v = Parameter("v", np.asfortranarray(rng.uniform(-1, 1, (3, 2))))
        assert v.value.flags.f_contiguous and not v.value.flags.c_contiguous

        def build(t):
            return loss_of(t, Node([[0.5, 0.5]]), [0], w, v, penalty_coef=1.0, l2_coef=1.0)

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


class NumpyBytesAtEachAdd(np.ndarray):
    """A gradient buffer that, at each in-place add into it while tracemalloc
    traces, appends to ``held`` the bytes that numpy's allocations hold
    (``np.lib.tracemalloc_domain``): the addend, a block task's scratch, is
    still alive then, and the interpreter's own objects are not counted."""

    held: list[int] = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if tracemalloc.is_tracing():
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
            NumpyBytesAtEachAdd.held.append(sum(trace.size for trace in snapshot.traces))
        inputs = [x.view(np.ndarray) if isinstance(x, np.ndarray) else x for x in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(x.view(np.ndarray) for x in kwargs["out"])
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestGradientRelease:
    def test_only_parameters_and_untaped_leaves_keep_gradients(self):
        rng = np.random.default_rng(24)
        w = param(rng.uniform(-1, 1, (3, 3)), "w")
        leaf = Node(rng.uniform(-1, 1, (3, 2)))
        rows = Node(rng.uniform(-1, 1, (2, 3)))
        tape = Tape()
        h = ad.attention(tape, leaf, w, rows)
        loss = loss_of(tape, h, [0, 1], decayed=leaf, l2_coef=1.0)
        outs = [out for out, _ in tape._records]
        backward(tape, loss)
        assert len(outs) == 2 and len(tape) == 0 and all(out.grad is None for out in outs)
        assert np.abs(w.grad).max() > 0 and np.abs(leaf.grad).max() > 0

    @staticmethod
    def l2_backward(shape, dtype):
        """The loss record's L2 backward at ``l2_coef`` 0.3 into a zero
        gradient, which must be ``(2 * value) * g`` bit for bit. Returns the
        most bytes numpy held at a block's add, the traced peak, and the
        bytes of one block and of the value."""
        w = Parameter("w", np.random.default_rng(25).normal(size=shape).astype(dtype),
                      grad=np.zeros(shape, dtype).view(NumpyBytesAtEachAdd))
        assert w.value.nbytes >= 4 * 2**20
        tape = Tape()
        loss = l2_loss(tape, w, 0.3)
        NumpyBytesAtEachAdd.held = []
        tracemalloc.start()
        try:
            backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = NumpyBytesAtEachAdd.held
        assert len(held) == len(list(ad.row_blocks(w.value)))   # one add per block
        block = max(1, ad.ROW_BLOCK // w.value[0].size) * w.value[0].nbytes
        assert block <= w.value.nbytes // 8
        np.testing.assert_array_equal(w.grad.view(np.ndarray),
                                      2.0 * w.value * np.full((1, 1), 0.3, dtype))
        return max(held), peak, block, w.value.nbytes

    @pytest.mark.parametrize("shape,dtype", [((1024, 512), np.float64),
                                             ((1000, 1100), np.float32)])
    def test_sum_squares_backward_needs_one_row_block(self, shape, dtype, monkeypatch):
        # the loss record's L2 backward makes no parameter-sized temporaries:
        # numpy holds one block of rows as it adds one, and the result is
        # still (2 * value) * g bit for bit
        monkeypatch.setattr(ad, "_two_cores", lambda: False)
        held, peak, block, value = self.l2_backward(shape, dtype)
        assert held < block + 1024
        assert peak < value // 2   # and no parameter-sized scratch anywhere

    @pytest.mark.parametrize("shape,dtype", [((1024, 512), np.float64),
                                             ((1000, 1100), np.float32)])
    def test_sum_squares_backward_needs_one_row_block_per_thread(self, shape, dtype,
                                                                 two_cores):
        # the two-core path: each thread's scratch is one block of rows
        calls = two_cores(True)
        held, peak, block, value = self.l2_backward(shape, dtype)
        assert calls == [True, True]   # the value's dots, then the gradient's blocks
        assert held < 2 * block + 1024
        assert peak < value // 2

    def test_step_high_water_over_the_saved_forward(self):
        # one total_loss plus backward on a fixed nyt-profile float32 batch of
        # 8 bags (24 sentences, 745 tokens): the traced high-water, from
        # before the forward, as a multiple of what the forward left on the
        # tape. A backward that held replayed records, a separate gate
        # gradient and whole-block temporaries read 1.41 with the BiLSTM's
        # directions in turn and 1.60 with them concurrent; freeing as it
        # goes, 1.28 and 1.31
        cfg = ModelConfig.from_profile("nyt", seed=1)
        model = Model(cfg, 40, 53, rng=np.random.default_rng(1))
        rng = np.random.default_rng(0)
        bags = []
        for k, size in enumerate((1, 1, 1, 2, 2, 3, 5, 9)):
            instances = []
            for _ in range(size):
                n = int(np.clip(round(rng.lognormal(np.log(32), 0.4)), 8, cfg.time_steps))
                head, tail = rng.choice(n, 2, replace=False)
                instances.append(Instance(rng.integers(2, 40, n), int(head), int(tail)))
            bags.append(Bag(f"b{k}", "h", "t", int(rng.integers(0, 53)), instances))
        tape = Tape()
        tracemalloc.start()
        try:
            loss, _ = training.total_loss(tape, bags, model)
            saved = tracemalloc.get_traced_memory()[0]
            backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert saved > 16 * 2**20
        assert peak < 1.36 * saved, peak / saved

    def test_mlp_weight_gradient_adds_row_blocks(self):
        # word_mlp_weight's shape at the nyt profile against a 33-instance
        # batch: the weight's gradient is added block by block, bit for bit
        # the whole product added at once, with no weight-sized scratch
        rng = np.random.default_rng(26)
        w = Parameter("w", rng.uniform(-0.1, 0.1, (1000, 5400)).astype(np.float32))
        w.grad[...] = rng.uniform(-1, 1, w.shape)
        before = w.grad.copy()
        mlp = wa.WordAttentionParams(None, None, w, Parameter(
            "b", np.full((1000, 1), 100.0, np.float32)))   # every unit active
        weighted = Node(rng.uniform(-1, 1, (33, 9, 600)).astype(np.float32))
        probe = rng.uniform(-1, 1, (1000, 33)).astype(np.float32)
        tape = Tape()
        loss = ad.inner(tape, wa.flatten_project(tape, weighted, mlp), probe)
        tracemalloc.start()
        try:
            backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < w.value.nbytes // 4
        flat = weighted.value.reshape(33, 5400)
        before += probe @ flat
        np.testing.assert_array_equal(w.grad, before)
        np.testing.assert_array_equal(weighted.grad, (probe.T @ w.value).reshape(33, 9, 600))


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
        # the loss record's L2 term
        for a in tensors:
            got = l2_loss(None, Node(a)).value
            want = self.reference(a)
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

    def test_openblas_build_is_named_or_unknown(self):
        # CI prints these to name the kernels that exact-bits tests ran on
        for name in ("get_corename", "get_config"):
            value = ad._openblas(name, ctypes.c_char_p)
            assert value is None or isinstance(value, bytes) and value, name

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

    @pytest.mark.parametrize("handling", ["raise", "ignore"])
    def test_worker_keeps_the_callers_float_error_handling(self, handling, two_cores):
        # a new thread starts at numpy's default, which only warns
        big = np.float32(3e38)
        calls = two_cores(True)
        with np.errstate(over=handling), warnings.catch_warnings():
            warnings.simplefilter("error")   # a warning fails the test
            if handling == "raise":
                with pytest.raises(FloatingPointError):
                    ad.halves([lambda: None, lambda: big * big], 1, 1)
            else:
                assert ad.halves([lambda: None, lambda: big * big], 1, 1)[1] == np.inf
        assert calls == ([] if handling == "raise" else [True])

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
            loss = l2_loss(tape, w, 0.3)
            backward(tape, loss)
            # the value's dots, then the gradient's blocks
            assert calls == ([True, True] if on and blocks > 1 else [])
            results.append((loss.value, w.grad))
        np.testing.assert_array_equal(results[1][0], results[0][0])
        np.testing.assert_array_equal(results[1][1], results[0][1])

    @staticmethod
    def mlp(value, start=None):
        """Word attention's MLP weights: ``value``, its gradient ``start``, no bias."""
        return wa.WordAttentionParams(None, None, Parameter("w", value, grad=start),
                                      Parameter("b", np.zeros((len(value), 1), value.dtype)))

    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_row_blocked_weight_gradient(self, blocks, two_cores):
        cols = 1024   # PRODUCT_BLOCK // cols rows a block
        rows = int(blocks * ad.PRODUCT_BLOCK // cols)
        rng = np.random.default_rng(44)
        value = rng.uniform(-0.1, 0.1, (rows, cols)).astype(np.float32)
        start = rng.uniform(-1, 1, value.shape).astype(np.float32)
        x = rng.uniform(-1, 1, (7, 2, cols // 2)).astype(np.float32)
        probe = rng.uniform(-1, 1, (rows, 7)).astype(np.float32)
        results = []
        for on in (False, True):
            mlp, weighted = self.mlp(value, start.copy()), Node(x)
            calls = two_cores(on)
            tape = Tape()
            loss = ad.inner(tape, wa.flatten_project(tape, weighted, mlp), probe)
            backward(tape, loss)
            # the forward product's row halves, then the record's two
            # gradients; the weight's row blocks run in turn on its thread
            assert calls == ([True, True] if on else [])
            results.append((mlp.mlp_weight.grad, weighted.grad))
        for got, want in zip(results[1], results[0]):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("above", [False, True])
    def test_gradient_pair_work(self, above, two_cores, monkeypatch):
        # the record's work is both gradients' multiply-adds, 2 * g.size * k
        rng = np.random.default_rng(46)
        mlp = self.mlp(rng.uniform(-1, 1, (30, 40)).astype(np.float32))
        weighted = Node(rng.uniform(-1, 1, (20, 2, 20)).astype(np.float32))
        calls = two_cores(True)
        monkeypatch.setattr(ad, "CONCURRENT_MIN_PRODUCT", 2 * 30 * 20 * 40 + (not above))
        tape = Tape()
        backward(tape, ad.inner(tape, wa.flatten_project(tape, weighted, mlp), 1.0))
        assert calls == ([True] if above else [])

    @pytest.mark.parametrize("on", [False, True])
    def test_row_blocked_product(self, on, two_cores):
        # word_mlp_weight's forward at the nyt profile against a 33-instance
        # batch: above the threshold on one core or two, one product per half
        # of the weight's rows, bit for bit the whole product
        rng = np.random.default_rng(47)
        x = rng.uniform(-0.1, 0.1, (1000, 5400)).astype(np.float32)
        y = rng.uniform(-1, 1, (5400, 33)).astype(np.float32)
        calls = two_cores(on)
        np.testing.assert_array_equal(ad._product(x, y), x @ y)
        assert calls == ([True] if on else [])

    @staticmethod
    def counted_tasks(monkeypatch) -> list:
        """The task count of each later ``halves`` call, appended in call order."""
        noting_halves, tasks = ad.halves, []

        def counting_halves(part, work, least=None):
            tasks.append(len(part))
            return noting_halves(part, work, least)
        monkeypatch.setattr(ad, "halves", counting_halves)
        return tasks

    @pytest.mark.parametrize("rows", [1, 1000, 1043])
    @pytest.mark.parametrize("on", [False, True])
    def test_product_runs_as_two_row_halves(self, rows, on, two_cores, monkeypatch):
        # word attention's X·W1ᵀ at nyt-like row counts, even and odd: one
        # halves call of two tasks, never an empty one, bit for bit the whole
        # product; a one-row product is one call
        rng = np.random.default_rng(50)
        x = rng.uniform(-1, 1, (rows, 600)).astype(np.float32)
        y = rng.uniform(-1, 1, (600, 300)).astype(np.float32).T.copy().T   # as W1ᵀ
        calls = two_cores(on)
        tasks = self.counted_tasks(monkeypatch)
        np.testing.assert_array_equal(ad._product(x, y), x @ y)
        assert tasks == ([2] if rows > 1 else [])
        assert calls == ([True] if on and rows > 1 else [])

    @pytest.mark.parametrize("above", [False, True])
    def test_product_threshold(self, above, two_cores, monkeypatch):
        # the work is the product's multiply-adds, rows * y.size
        rng = np.random.default_rng(51)
        x, y = rng.uniform(-1, 1, (30, 40)), rng.uniform(-1, 1, (40, 20))
        calls = two_cores(True)
        monkeypatch.setattr(ad, "CONCURRENT_MIN_PRODUCT", 30 * 40 * 20 + (not above))
        np.testing.assert_array_equal(ad._product(x, y), x @ y)
        assert calls == ([True] if above else [])

    @pytest.mark.parametrize("operands", ["matrix-stack", "stack-matrix", "stack-stack"])
    def test_a_product_with_a_stack_is_one_call(self, operands, two_cores, monkeypatch):
        # only a 2-D product splits, whatever the work
        rng = np.random.default_rng(52)
        x = rng.uniform(-1, 1, (3, 30, 40) if operands.startswith("stack") else (30, 40))
        y = rng.uniform(-1, 1, (3, 40, 20) if operands.endswith("stack") else (40, 20))
        calls = two_cores(True)
        tasks = self.counted_tasks(monkeypatch)
        np.testing.assert_array_equal(ad._product(x, y), x @ y)
        assert tasks == [] and calls == []

    @pytest.mark.parametrize("batch", [1, 2, 33])
    def test_stacked_product(self, batch, two_cores):
        # word attention's weighted sum: a stack of attention rows times a
        # stack of states
        rng = np.random.default_rng(45)
        attention = rng.uniform(0, 1, (batch, 3, 20)).astype(np.float32)
        hidden = rng.uniform(-1, 1, (batch, 40, 20)).astype(np.float32)
        probe = rng.uniform(-1, 1, (batch, 3, 40)).astype(np.float32)
        results = []
        for on in (False, True):
            a, h = Node(attention), Node(hidden)
            tape = Tape()
            calls = two_cores(on)
            out = wa.weighted_sentence_matrix(tape, a, h)
            backward(tape, ad.inner(tape, out, probe))
            # one forward product, then the record's two gradients
            assert calls == ([True] if on else [])
            results.append((out.value, a.grad, h.grad))
        for got, want in zip(results[1], results[0]):
            assert np.abs(want).max() > 0
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(results[0][0], attention @ hidden.swapaxes(1, 2))


class TestFiniteDiffCheck:
    def test_quadratic_form(self):
        w = param(np.random.default_rng(6).uniform(0.5, 2.0, (3, 3)), "w")
        assert finite_diff_check(lambda: (t := Tape(), l2_loss(t, w)), [w]) < 1e-7

    def test_constant_function(self):
        w = param(np.ones((2, 2)), "w")

        def f():
            tape = Tape()
            return tape, ad.inner(tape, w, 0.0)

        assert finite_diff_check(f, [w]) == 0.0

    def test_requires_float64(self):
        w = Parameter("w", np.ones((2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="float64"):
            finite_diff_check(lambda: (t := Tape(), ad.inner(t, w, 1.0)), [w])

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
            return tape, ad.inner(tape, broken_tanh(tape, w), 1.0)

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
    entries are named ``<op>`` or ``<op>_<variant>``.
    """

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
        # equal, not a superset: one attention record serves both levels,
        # and every other record belongs to a layer function
        assert self.taped_ops() == {"attention", "inner"}
        assert "backward" not in self.taped_ops()

    def test_every_op_has_an_entry(self):
        covered = set(self.op_of_entry().values())
        assert sorted(self.taped_ops() - covered) == []

    def test_every_entry_names_an_op(self):
        assert sorted(e for e, op in self.op_of_entry().items() if op is None) == []
