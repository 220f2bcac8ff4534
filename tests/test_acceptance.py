"""Acceptance suite: one test per shipping criterion, with a pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The heavy synthetic-learnability criterion trains for 30 epochs and
dominates the runtime.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from relattn import gradcheck
from relattn import sentence_attention as sa
from relattn import word_attention as wa
from relattn.autodiff import Node, Parameter, Tape, backward
from relattn.cli import EXIT_OK, main
from relattn.config import ModelConfig
from relattn.data import SynthSpec, contains_pattern, generate_synthetic, relation_patterns
from relattn.evaluation import accuracy, hard_predictions
from relattn.model import Model
from relattn.training import objective, train

README = Path(__file__).resolve().parent.parent / "README.md"


def report(criterion, detail):
    print(f"\n[criterion {criterion}] PASS - {detail}")


class TestCriterion1GradientFidelity:
    def test_every_operation_and_full_loss_below_1e5(self):
        start = time.time()
        results = gradcheck.op_checks() + [gradcheck.full_loss_check()]
        elapsed = time.time() - start
        worst = max(results, key=lambda r: r.error)
        for r in results:
            assert r.error < 1e-5, f"{r.name}: {r.error:.3e}"
        assert elapsed < 60.0
        report(1, f"{len(results)} checks, worst {worst.name} at {worst.error:.2e}, "
                  f"{elapsed:.1f}s")


class TestCriterion2AttentionInvariants:
    def test_rows_sum_to_one_and_padding_gets_no_mass(self):
        rng = np.random.default_rng(42)
        t_steps, two_u, v = 9, 6, 5
        for draw in range(1000):
            rows_w = int(rng.integers(1, 5))
            word = wa.WordAttentionParams(
                attn_hidden=Parameter("ah", rng.normal(0, 1.5, (4, two_u))),
                attn_rows=Parameter("ar", rng.normal(0, 1.5, (rows_w, 4))),
                mlp_weight=Parameter("mw", rng.normal(0, 1, (v, rows_w * two_u))),
                mlp_bias=Parameter("mb", np.zeros((v, 1))),
            )
            true_length = int(rng.integers(1, t_steps + 1))
            hidden = Node(rng.normal(0, 2, (two_u, t_steps)))
            valid = np.arange(t_steps) < true_length
            attn1 = wa.word_attention_matrix(None, hidden, word, valid_cols=valid).value
            assert np.abs(attn1.sum(axis=1) - 1.0).max() < 1e-6
            assert attn1[:, true_length:].sum() < 1e-6   # masked-out mass

            j = int(rng.integers(1, 6))
            rows_s = int(rng.integers(1, 4))
            sent = sa.SentAttentionParams(
                attn_hidden=Parameter("sh", rng.normal(0, 1.5, (4, v))),
                attn_rows=Parameter("sr", rng.normal(0, 1.5, (rows_s, 4))),
                class_weight=Parameter("cw", rng.normal(0, 1, (3, v))),
                class_bias=Parameter("cb", np.zeros((3, 1))),
            )
            stacked = Node(rng.normal(0, 2, (v, j)))
            attn2 = sa.sentence_attention_matrix(None, stacked, sent).value
            assert np.abs(attn2.sum(axis=1) - 1.0).max() < 1e-6
        report(2, "1000 random draws: all attention rows sum to 1; "
                  "padded-column mass < 1e-6 under masking")


class TestCriterion3PenaltyLaw:
    def test_orthonormal_rows_have_zero_penalty(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            q, _ = np.linalg.qr(rng.normal(size=(6, 2)))
            worst = max(worst, wa.attention_penalty(q.T)[0].item())
        assert worst <= 1e-12
        report(3, f"orthonormal-row penalty <= {worst:.1e}")

    def test_gradient_descent_minimizes_penalty(self):
        rng = np.random.default_rng(8)
        attn = Parameter("attn", rng.normal(0.0, 0.5, (2, 6)))
        steps = 0
        value = None
        for steps in range(1, 501):
            attn.zero_grad()
            tape = Tape()
            # the loss record of one bag whose one probability is 1: the penalty alone
            loss, _ = objective(tape, Node([[1.0]]), [0], attn, None, 1.0, 0.0)
            value = loss.value.item()
            if value < 1e-3:
                break
            backward(tape, loss)
            attn.value -= 0.02 * attn.grad
        assert value < 1e-3
        report(3, f"penalty {value:.2e} after {steps} descent steps (limit 500)")


class TestCriterion4DegenerateBag:
    def test_single_instance_bag_is_exact(self):
        rng = np.random.default_rng(9)
        v = 6
        for trial in range(100):
            sent = sa.SentAttentionParams(
                attn_hidden=Parameter("sh", rng.normal(size=(4, v))),
                attn_rows=Parameter("sr", rng.normal(size=(3, 4))),
                class_weight=Parameter("cw", rng.normal(size=(4, v))),
                class_bias=Parameter("cb", rng.normal(size=(4, 1))),
            )
            rep = Node(rng.uniform(0, 1, (v, 1)))
            averaged = sa.average_attention(
                None, sa.sentence_attention_matrix(None, rep, sent, sa.stack_bag([1])))
            selection = sa.selection_representation(None, averaged, rep)
            np.testing.assert_array_equal(averaged.value, [[[1.0]]])
            assert np.abs(selection.value - rep.value.T).max() < 1e-6
        report(4, "J=1: averaged attention exactly [1.0], selection equals the instance")

    def test_structured_with_one_row_equals_plain_1d_attention(self):
        rng = np.random.default_rng(10)
        v, da, classes = 6, 4, 3
        worst = 0.0
        for trial in range(100):
            sent = sa.SentAttentionParams(
                attn_hidden=Parameter("sh", rng.normal(size=(da, v))),
                attn_rows=Parameter("sr", rng.normal(size=(1, da))),
                class_weight=Parameter("cw", rng.normal(size=(classes, v))),
                class_bias=Parameter("cb", rng.normal(size=(classes, 1))),
            )
            j = int(rng.integers(1, 7))
            reps = [Node(rng.uniform(0, 1, (v, 1))) for _ in range(j)]
            stacked = Node(np.hstack([r.value for r in reps]))
            attn = sa.sentence_attention_matrix(None, stacked, sent, sa.stack_bag([j]))
            averaged = sa.average_attention(None, attn)
            selection = sa.selection_representation(None, averaged, stacked)
            probs = sa.classify(None, selection, sent).value.ravel()

            # independent plain-1-D attention path
            s = stacked.value
            logits = (sent.attn_rows.value @ np.tanh(sent.attn_hidden.value @ s)).ravel()
            e = np.exp(logits - logits.max())
            weights = e / e.sum()
            sel = s @ weights[:, None]
            cl = sent.class_weight.value @ np.tanh(sel) + sent.class_bias.value
            ce = np.exp(cl - cl.max())
            expected = (ce / ce.sum()).ravel()
            worst = max(worst, np.abs(probs - expected).max(),
                        np.abs(averaged.value.ravel() - weights).max())
        assert worst < 1e-12
        report(4, f"single-row structured path equals 1-D attention, max diff {worst:.1e}")


class TestCriterion5PermutationLaw:
    def test_instance_order_does_not_matter(self):
        rng = np.random.default_rng(11)
        cfg = ModelConfig(word_dim=5, position_dim=4, max_distance=4, time_steps=8,
                          hidden_size=3, word_attention_hidden=4, word_attention_rows=2,
                          mlp_size=6, sent_attention_hidden=4, sent_attention_rows=2,
                          precision="float64")
        spec = SynthSpec(num_relations=3, vocab_size=40, bags_per_relation=40,
                         max_bag_size=5, noise_ratio=0.4, seed=12)
        ds = generate_synthetic(spec, cfg)
        model = Model(cfg, len(ds.vocab), 3, rng=np.random.default_rng(13))
        multi = [bag for bag in ds.bags if len(bag.instances) >= 2]
        worst_prob = worst_attn = 0.0
        for trial in range(100):
            bag = multi[trial % len(multi)]
            j = len(bag.instances)
            perm = rng.permutation(j)
            base = model.forward_bag(None, bag)
            reps, _ = model.instance_outputs(None, [bag.instances[i] for i in perm])
            shuffled = model.bag_outputs(None, reps, [j])
            worst_prob = max(worst_prob, np.abs(shuffled.probabilities.value
                                                - base.probabilities.value).max())
            worst_attn = max(worst_attn, np.abs(shuffled.averaged.value.ravel()
                                                - base.averaged.value.ravel()[perm]).max())
        assert worst_prob < 1e-6
        assert worst_attn < 1e-6
        report(5, f"100 permutations: max prob drift {worst_prob:.1e}, "
                  f"max attention drift {worst_attn:.1e}")


class TestCriterion6SyntheticLearnability:
    def test_scaled_down_model_learns_and_prefers_valid_instances(self):
        start = time.time()
        config = ModelConfig.from_profile("synth", seed=3, epochs=30)
        train_ds = generate_synthetic(SynthSpec(5, 200, 400, 5, 0.5, seed=11), config)
        test_ds = generate_synthetic(SynthSpec(5, 200, 80, 5, 0.5, seed=23), config)
        assert len(train_ds.bags) == 2000 and len(test_ds.bags) == 400

        result = train(train_ds, config)
        model = result.model
        acc = accuracy(hard_predictions(test_ds, model), test_ds)
        assert acc >= 0.90

        patterns = relation_patterns(5, 200)
        wins = comparable = 0
        for bag in test_ds.bags:
            if len(bag.instances) < 2:
                continue
            valid = np.array([contains_pattern(test_ds.vocab.decode(inst.token_ids),
                                               patterns[bag.relation_id])
                              for inst in bag.instances])
            if valid.all() or not valid.any():
                continue
            averaged = model.forward_bag(None, bag).averaged.value.ravel()
            comparable += 1
            wins += averaged[valid].mean() > averaged[~valid].mean()
        elapsed = time.time() - start
        assert comparable > 50
        assert wins / comparable >= 0.75
        assert elapsed < 600.0
        report(6, f"test accuracy {acc:.3f} (>=0.90), attention prefers valid instances "
                  f"in {wins}/{comparable} bags (>=75%), wall {elapsed:.0f}s (<600s)")


class TestCriterion7MetricOracles:
    def test_pr_and_pn_match_brute_force(self):
        # the brute-force references live in tests/test_evaluation.py; this
        # criterion re-runs them on a fresh 1000-record draw
        from test_evaluation import random_records, ref_p_at_n, ref_pr_curve
        from relattn.evaluation import p_at_n, pr_curve

        records, gold = random_records(1000, seed=99)
        points, auc = pr_curve(records, gold)
        ref_points, ref_auc = ref_pr_curve(records, gold)
        assert points == ref_points and auc == pytest.approx(ref_auc, abs=1e-12)
        for n in (1, 10, 100, 999, 1000):
            assert p_at_n(records, gold, n) == ref_p_at_n(records, gold, n)
        report(7, "pr_curve and p_at_n match the brute-force references exactly "
                  "on 1000 randomized records")

    def test_macro_f1_hand_fixture(self):
        # 3 classes incl. the none class; relA perfect, relB tp=1 fp=1 fn=1
        from relattn.evaluation import macro_f1

        cfg = ModelConfig.from_profile("synth")
        ds = generate_synthetic(SynthSpec(num_relations=3, vocab_size=40,
                                          bags_per_relation=2, max_bag_size=1,
                                          noise_ratio=0.0, seed=30), cfg)
        ds.relations = ["NA", "relA", "relB"]
        ds.none_relation_id = 0
        preds = {bag.bag_id: bag.relation_id for bag in ds.bags}
        bags0 = [b for b in ds.bags if b.relation_id == 0]
        bags2 = [b for b in ds.bags if b.relation_id == 2]
        preds[bags2[0].bag_id] = 0
        preds[bags0[0].bag_id] = 2
        per_class, macro = macro_f1(list(preds.items()), ds)
        by_class = {cls: (p, r, f1) for cls, p, r, f1 in per_class}
        assert by_class[1] == (1.0, 1.0, 1.0)
        assert by_class[2] == (0.5, 0.5, 0.5)
        assert macro == 0.75
        report(7, "macro F1 on the hand-computed 3-class fixture: "
                  "per-class F1 {1.0, 0.5} -> 0.75 exactly")


class TestCriterion8Determinism:
    def test_two_runs_bit_identical(self, tmp_path):
        data = tmp_path / "train.jsonl"
        assert main(["gen-synth", "--out", str(data), "--relations", "3", "--vocab", "40",
                     "--bags", "24", "--max-bag", "3", "--seed", "5"]) == EXIT_OK
        flags = ["--set", "word_dim=6", "--set", "position_dim=4",
                 "--set", "max_distance=5", "--set", "time_steps=10",
                 "--set", "hidden_size=4", "--set", "word_attention_hidden=5",
                 "--set", "word_attention_rows=2", "--set", "mlp_size=8",
                 "--set", "sent_attention_hidden=5", "--set", "sent_attention_rows=2",
                 "--set", "batch_size=8", "--set", "epochs=2"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--data", str(data), "--out", str(out_a)] + flags) == EXIT_OK
        assert main(["train", "--data", str(data), "--out", str(out_b)] + flags) == EXIT_OK
        ckpt_a = (out_a / "model.ckpt").read_bytes()
        ckpt_b = (out_b / "model.ckpt").read_bytes()
        log_a = (out_a / "loss_log.csv").read_text()
        log_b = (out_b / "loss_log.csv").read_text()
        assert ckpt_a == ckpt_b
        assert log_a == log_b
        report(8, f"identical loss logs ({log_a.count(chr(10)) - 1} rows) and "
                  f"bit-identical checkpoints ({len(ckpt_a)} bytes)")


class TestCriterion9ReferenceValuesDocumented:
    def test_readme_states_full_scale_reference_results(self):
        text = README.read_text(encoding="utf-8")
        for needle in ("90.0", "69.6", "78.1", "NYT"):
            assert needle in text
        assert "not" in text.lower() and "reference" in text.lower()
        report(9, "README documents the full-scale reference results and why they "
                  "are not CI targets")
