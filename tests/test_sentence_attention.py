"""Sentence-level attention: degenerate bags, permutation law, 1-D equivalence."""

import numpy as np
import pytest

from relattn import sentence_attention as sa
from relattn.autodiff import Node, Parameter, Tape, finite_diff_check
from relattn.training import objective


def params_for(rows, attn_hidden, rep_dim, classes, seed=0):
    rng = np.random.default_rng(seed)
    return sa.SentAttentionParams(
        attn_hidden=Parameter("ah", rng.uniform(-0.7, 0.7, (attn_hidden, rep_dim))),
        attn_rows=Parameter("ar", rng.uniform(-0.7, 0.7, (rows, attn_hidden))),
        class_weight=Parameter("cw", rng.uniform(-0.7, 0.7, (classes, rep_dim))),
        class_bias=Parameter("cb", rng.uniform(-0.3, 0.3, (classes, 1))),
    )


def random_reps(j, v, seed):
    """``[v x j]`` representations, one column per instance."""
    rng = np.random.default_rng(seed)
    return Node(np.hstack([rng.uniform(0, 1, (v, 1)) for _ in range(j)]))


def full_forward(reps, params):
    membership = sa.stack_bag([reps.shape[1]])
    attn = sa.sentence_attention_matrix(None, reps, params, membership)
    averaged = sa.average_attention(None, attn)
    selection = sa.selection_representation(None, averaged, reps)
    probs = sa.classify(None, selection, params)
    return attn, averaged, selection, probs


class TestStack:
    def test_single_instance(self):
        out = sa.stack_bag([1])
        np.testing.assert_array_equal(out, [[[True]]])

    def test_columns_round_trip(self):
        # bag b owns the next sizes[b] columns of the representations
        out = sa.stack_bag([2, 1, 3])
        assert out.shape == (3, 1, 6)
        np.testing.assert_array_equal(out[:, 0], [[1, 1, 0, 0, 0, 0],
                                                  [0, 0, 1, 0, 0, 0],
                                                  [0, 0, 0, 1, 1, 1]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sa.stack_bag([])
        with pytest.raises(ValueError):
            sa.stack_bag([2, 0])


class TestAttentionMatrix:
    def test_single_instance_gets_exactly_one(self):
        p = params_for(3, 4, 5, 2)
        attn = sa.sentence_attention_matrix(None, random_reps(1, 5, 2), p, sa.stack_bag([1]))
        np.testing.assert_array_equal(attn.value, np.ones((1, 3, 1)))

    def test_zero_row_weights_uniform(self):
        p = params_for(2, 4, 5, 2)
        p.attn_rows.value[...] = 0.0
        attn = sa.sentence_attention_matrix(None, random_reps(4, 5, 3), p, sa.stack_bag([4]))
        np.testing.assert_allclose(attn.value, np.full((1, 2, 4), 0.25), atol=1e-12)

    def test_matches_plain_numpy(self):
        # two bags in one pass: each bag's rows are its own softmax, 0 elsewhere
        p = params_for(3, 4, 6, 2, seed=4)
        reps = random_reps(5, 6, 5)
        got = sa.sentence_attention_matrix(None, reps, p, sa.stack_bag([2, 3])).value
        for b, cols in enumerate((slice(0, 2), slice(2, 5))):
            logits = p.attn_rows.value @ np.tanh(p.attn_hidden.value @ reps.value[:, cols])
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            np.testing.assert_allclose(got[b, :, cols], e / e.sum(axis=1, keepdims=True),
                                       atol=1e-12)
            outside = np.ones(5, dtype=bool)
            outside[cols] = False
            np.testing.assert_array_equal(got[b][:, outside], 0.0)


class TestAverage:
    def test_single_row_passes_through(self):
        row = np.random.default_rng(6).dirichlet(np.ones(4))[None, :]
        np.testing.assert_array_equal(sa.average_attention(None, Node(row)).value, row)

    def test_two_one_hot_rows(self):
        attn = Node(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(sa.average_attention(None, attn).value, [[0.5, 0.5]])

    def test_identical_rows_unchanged(self):
        row = np.random.default_rng(7).dirichlet(np.ones(5))
        attn = Node(np.stack([row, row, row]))
        np.testing.assert_allclose(sa.average_attention(None, attn).value, row[None, :],
                                   atol=1e-15)

    def test_mean_still_sums_to_one(self):
        for seed in range(20):
            p = params_for(3, 4, 5, 2, seed=seed)
            j = seed % 5 + 1
            attn = sa.sentence_attention_matrix(None, random_reps(j, 5, seed + 100), p,
                                                sa.stack_bag([j]))
            avg = sa.average_attention(None, attn)
            assert avg.value.sum() == pytest.approx(1.0, abs=1e-6)


class TestSelection:
    def test_single_instance_identity(self):
        reps = random_reps(1, 5, 8)
        _, averaged, selection, _ = full_forward(reps, params_for(2, 3, 5, 2, seed=8))
        np.testing.assert_allclose(selection.value, reps.value.T, atol=1e-6)
        np.testing.assert_array_equal(averaged.value, [[[1.0]]])

    def test_one_hot_picks_column(self):
        stacked = random_reps(3, 4, 9)
        averaged = Node(np.array([[0.0, 0.0, 1.0]]))
        out = sa.selection_representation(None, averaged, stacked).value
        np.testing.assert_array_equal(out, stacked.value[:, 2:3].T)

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(10)
        stacked = random_reps(3, 4, 10)
        averaged = Node(rng.dirichlet(np.ones(3))[None, :])
        out = sa.selection_representation(None, averaged, stacked).value
        np.testing.assert_allclose(out.ravel(), averaged.value[0] @ stacked.value.T,
                                   atol=1e-12)


class TestClassify:
    def test_zero_weights_uniform(self):
        p = params_for(2, 3, 4, 5, seed=11)
        p.class_weight.value[...] = 0.0
        p.class_bias.value[...] = 0.0
        probs = sa.classify(None, Node(np.ones((1, 4))), p).value
        np.testing.assert_allclose(probs, np.full((1, 5), 0.2), atol=1e-12)

    def test_large_bias_wins(self):
        p = params_for(2, 3, 4, 5, seed=12)
        p.class_weight.value[...] = 0.0
        p.class_bias.value[...] = 0.0
        p.class_bias.value[3] = 50.0
        probs = sa.classify(None, Node(np.ones((1, 4))), p).value
        assert int(np.argmax(probs)) == 3

    def test_two_class_hand_oracle(self):
        p = params_for(1, 1, 2, 2, seed=13)
        p.class_weight.value[...] = [[1.0, 0.0], [0.0, 1.0]]
        p.class_bias.value[...] = 0.0
        selection = Node(np.array([[0.5, -0.25]]))
        probs = sa.classify(None, selection, p).value
        logits = np.array([np.tanh(0.5), np.tanh(-0.25)])
        expected = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(probs.ravel(), expected, atol=1e-12)


class TestInvariants:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(14)
        for trial in range(100):
            j = int(rng.integers(2, 7))
            v = 5
            p = params_for(3, 4, v, 4, seed=trial)
            reps = random_reps(j, v, trial + 500)
            perm = rng.permutation(j)
            _, averaged, _, probs = full_forward(reps, p)
            _, averaged_p, _, probs_p = full_forward(Node(reps.value[:, perm]), p)
            np.testing.assert_allclose(averaged_p.value.ravel(), averaged.value.ravel()[perm],
                                       atol=1e-6)
            np.testing.assert_allclose(probs_p.value, probs.value, atol=1e-6)

    def test_single_attention_row_equals_explicit_1d_attention(self):
        # the structured path with one row must agree with an independently
        # computed plain 1-D attention to double precision
        rng = np.random.default_rng(15)
        for trial in range(100):
            j = int(rng.integers(1, 7))
            v, da, classes = 6, 4, 3
            p = params_for(1, da, v, classes, seed=trial + 900)
            reps = random_reps(j, v, trial + 1300)
            _, averaged, _, probs = full_forward(reps, p)

            stacked = reps.value
            logits = (p.attn_rows.value @ np.tanh(p.attn_hidden.value @ stacked)).ravel()
            e = np.exp(logits - logits.max())
            weights = e / e.sum()
            selection = stacked @ weights[:, None]
            class_logits = p.class_weight.value @ np.tanh(selection) + p.class_bias.value
            ce = np.exp(class_logits - class_logits.max())
            expected_probs = (ce / ce.sum()).ravel()

            np.testing.assert_allclose(averaged.value.ravel(), weights, atol=1e-12)
            np.testing.assert_allclose(probs.value.ravel(), expected_probs, atol=1e-12)

    def test_gradient_through_bag_level(self):
        p = params_for(2, 3, 4, 3, seed=16)
        reps = random_reps(3, 4, 17)

        def f():
            tape = Tape()
            attn = sa.sentence_attention_matrix(tape, reps, p, sa.stack_bag([3]))
            averaged = sa.average_attention(tape, attn)
            selection = sa.selection_representation(tape, averaged, reps)
            probs = sa.classify(tape, selection, p)
            return tape, objective(tape, probs, 1, None, None, 0.0, 0.0)[0]

        err = finite_diff_check(f, [p.attn_hidden, p.attn_rows,
                                    p.class_weight, p.class_bias])
        assert err < 1e-5


class TestFloat32Normalization:
    def test_batched_classify_passes_cross_entropy_check(self):
        # 53 classes, as in the NYT relation set. In each bag one class
        # stands out and the other 52 logits tie: summing such a float32 row
        # sequentially (as numpy does along a strided axis) errs the same way
        # at every step and misses the loss record's 1e-6 check.
        rng = np.random.default_rng(18)
        mlp, classes = 64, 53
        for trial in range(300):
            bags = int(rng.integers(1, 65))
            p = params_for(2, 3, mlp, classes, seed=trial)
            p.class_weight.value = (rng.uniform(0, 8) * np.eye(classes, mlp)).astype(np.float32)
            p.class_bias.value = np.zeros((classes, 1), dtype=np.float32)
            selection = np.zeros((bags, mlp), dtype=np.float32)
            selection[np.arange(bags), rng.integers(0, classes, bags)] = rng.uniform(0.1, 3, bags)
            probs = sa.classify(None, Node(selection), p)
            assert probs.value.dtype == np.float32 and probs.shape == (bags, classes)
            objective(None, probs, rng.integers(0, classes, bags), None, None, 0.0, 0.0)
