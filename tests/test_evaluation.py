"""Metric oracles and evaluation-protocol tests.

The reference implementations at the top of this file are deliberately
naive (re-scan per prefix, no shared code with the package) and serve as
the oracles the fast implementations must match exactly.
"""

import csv

import numpy as np
import pytest

from relattn import encoder as enc
from relattn import word_attention as wa
from relattn.autodiff import Node
from relattn.config import ModelConfig
from relattn.data import BLANK_TOKEN, SynthSpec, generate_synthetic
from relattn.evaluation import (EvalError, PnSetting, PredictionRecord, accuracy,
                                export_attention, gold_facts, hard_predictions, macro_f1,
                                p_at_n, pr_curve, score_test_set)
from relattn.model import Model
from relattn.training import train

# ---------------------------------------------------------------------------
# brute-force reference implementations (the oracles)


def ref_ranked(records):
    return sorted(records, key=lambda r: (-r.confidence, r.bag_id, r.relation_id))


def ref_is_correct(record, gold):
    return (record.head, record.tail, record.relation_id) in gold


def ref_pr_curve(records, gold):
    order = ref_ranked(records)
    points = []
    for k in range(1, len(order) + 1):
        correct = sum(ref_is_correct(r, gold) for r in order[:k])
        points.append((correct / k, min(1.0, correct / len(gold))))
    auc = 0.0
    prev_r, prev_p = 0.0, points[0][0] if points else 0.0
    for p, r in points:
        auc += (r - prev_r) * (p + prev_p) / 2.0
        prev_r, prev_p = r, p
    return points, auc


def ref_p_at_n(records, gold, n):
    top = ref_ranked(records)[:n]
    return sum(ref_is_correct(r, gold) for r in top) / n


def random_records(count, seed, duplicate_confidences=True):
    rng = np.random.default_rng(seed)
    records, gold = [], set()
    for i in range(count):
        head, tail = f"e{rng.integers(0, 40)}", f"e{rng.integers(0, 40)}"
        rel = int(rng.integers(1, 6))
        conf = round(float(rng.random()), 2 if duplicate_confidences else 10)
        records.append(PredictionRecord(f"bag{i:04d}", head, tail, rel, conf))
        if rng.random() < 0.4:
            gold.add((head, tail, rel))
    if not gold:
        gold.add((records[0].head, records[0].tail, records[0].relation_id))
    return records, gold


# ---------------------------------------------------------------------------


class TestPrCurve:
    def test_matches_reference_on_1000_random_records(self):
        records, gold = random_records(1000, seed=0)
        got_points, got_auc = pr_curve(records, gold)
        ref_points, ref_auc = ref_pr_curve(records, gold)
        assert got_points == ref_points
        assert got_auc == pytest.approx(ref_auc, abs=1e-12)

    def test_all_correct(self):
        gold = {(f"h{i}", f"t{i}", 1) for i in range(8)}
        records = [PredictionRecord(f"b{i}", f"h{i}", f"t{i}", 1, 0.9 - i * 0.05)
                   for i in range(5)]
        points, _ = pr_curve(records, gold)
        assert all(p == 1.0 for p, _ in points)
        assert points[-1][1] == pytest.approx(min(1.0, 5 / 8))

    def test_hand_fixture(self):
        gold = {("a", "b", 1), ("c", "d", 2)}
        records = [PredictionRecord("b1", "a", "b", 1, 0.9),
                   PredictionRecord("b2", "x", "y", 3, 0.8),
                   PredictionRecord("b3", "c", "d", 2, 0.7)]
        points, _ = pr_curve(records, gold)
        assert points[0] == (1.0, 0.5)
        assert points[1] == (0.5, 0.5)
        assert points[2][0] == pytest.approx(2 / 3)
        assert points[2][1] == 1.0

    def test_empty_gold_rejected(self):
        with pytest.raises(EvalError):
            pr_curve([PredictionRecord("b", "h", "t", 1, 0.5)], set())

    def test_deterministic_tie_break(self):
        gold = {("h", "t", 1)}
        records = [PredictionRecord("b2", "x", "y", 2, 0.5),
                   PredictionRecord("b1", "h", "t", 1, 0.5)]
        points, _ = pr_curve(records, gold)
        assert points[0] == (1.0, 1.0)   # b1 sorts first on the tie


class TestPAtN:
    def test_matches_reference_on_1000_random_records(self):
        records, gold = random_records(1000, seed=1)
        for n in (1, 7, 100, 500, 1000):
            assert p_at_n(records, gold, n) == ref_p_at_n(records, gold, n)

    def test_all_top_correct(self):
        gold = {("h", "t", 1)}
        records = [PredictionRecord("b", "h", "t", 1, 0.9)]
        assert p_at_n(records, gold, 1) == 1.0

    def test_hand_fixture_three_of_four(self):
        gold = {(f"h{i}", "t", 1) for i in range(3)}
        records = ([PredictionRecord(f"b{i}", f"h{i}", "t", 1, 0.9 - 0.1 * i)
                    for i in range(3)]
                   + [PredictionRecord("b9", "zz", "t", 1, 0.65),
                      PredictionRecord("b8", "yy", "t", 1, 0.1)])
        assert p_at_n(records, gold, 4) == 0.75

    def test_n_larger_than_records_rejected(self):
        with pytest.raises(EvalError):
            p_at_n([PredictionRecord("b", "h", "t", 1, 0.5)], {("h", "t", 1)}, 2)

    def test_consistency_with_pr_curve(self):
        records, gold = random_records(300, seed=2)
        points, _ = pr_curve(records, gold)
        for n in (1, 10, 150, 300):
            assert p_at_n(records, gold, n) == points[n - 1][0]


class TestMacroF1:
    def small_dataset(self):
        cfg = ModelConfig.from_profile("synth")
        spec = SynthSpec(num_relations=3, vocab_size=40, bags_per_relation=4,
                         max_bag_size=2, noise_ratio=0.2, seed=3)
        return generate_synthetic(spec, cfg)

    def test_perfect_predictions(self):
        ds = self.small_dataset()
        preds = [(bag.bag_id, bag.relation_id) for bag in ds.bags]
        per_class, macro = macro_f1(preds, ds)
        assert macro == 1.0
        assert all(f1 == 1.0 for _, _, _, f1 in per_class)

    def test_hand_computed_three_class_fixture(self):
        # gold: rel0 x4, rel1 x4, rel2 x4 (bags in relation order)
        # predictions: rel0 perfect; rel1 half flipped to rel2; rel2 perfect
        # rel0: P=1, R=1, F1=1
        # rel1: tp=2, fp=0, fn=2 -> P=1, R=0.5, F1=2/3
        # rel2: tp=4, fp=2, fn=0 -> P=2/3, R=1, F1=0.8
        # macro = (1 + 2/3 + 0.8) / 3
        ds = self.small_dataset()
        preds = []
        flipped = 0
        for bag in ds.bags:
            cls = bag.relation_id
            if cls == 1 and flipped < 2:
                cls = 2
                flipped += 1
            preds.append((bag.bag_id, cls))
        per_class, macro = macro_f1(preds, ds)
        by_class = {cls: (p, r, f1) for cls, p, r, f1 in per_class}
        assert by_class[0] == (1.0, 1.0, 1.0)
        assert by_class[1] == (1.0, 0.5, pytest.approx(2 / 3))
        assert by_class[2] == (pytest.approx(2 / 3), 1.0, pytest.approx(0.8))
        assert macro == pytest.approx((1.0 + 2 / 3 + 0.8) / 3)

    def test_per_class_f1_one_and_half_average_to_three_quarters(self):
        # class 1 perfect (F1 = 1.0); class 2 gets tp=1, fp=1, fn=1 (F1 = 0.5)
        # with the none class donating the false positive
        ds = self.small_dataset()
        ds.relations = ["NA", "relA", "relB"]
        ds.none_relation_id = 0
        bags0 = [b for b in ds.bags if b.relation_id == 0]
        bags1 = [b for b in ds.bags if b.relation_id == 1]
        bags2 = [b for b in ds.bags if b.relation_id == 2]
        ds.bags = bags0[:1] + bags1[:2] + bags2[:2]
        preds = {bag.bag_id: bag.relation_id for bag in ds.bags}
        preds[bags2[0].bag_id] = 0   # relB loses one to NA -> fn=1
        preds[bags0[0].bag_id] = 2   # NA bag predicted relB -> fp=1
        per_class, macro = macro_f1(list(preds.items()), ds)
        by_class = {cls: f1 for cls, _, _, f1 in per_class}
        assert by_class[1] == 1.0
        assert by_class[2] == pytest.approx(0.5)
        assert macro == pytest.approx(0.75)

    def test_relabeling_invariance(self):
        ds = self.small_dataset()
        rng = np.random.default_rng(4)
        preds = [(bag.bag_id, int(rng.integers(0, 3))) for bag in ds.bags]
        _, macro = macro_f1(preds, ds)

        perm = [2, 0, 1]
        relabeled = self.small_dataset()
        relabeled.relations = [relabeled.relations[perm.index(i)] for i in range(3)]
        for bag in relabeled.bags:
            bag.relation_id = perm[bag.relation_id]
        preds_relabeled = [(bag_id, perm[cls]) for bag_id, cls in preds]
        _, macro_relabeled = macro_f1(preds_relabeled, relabeled)
        assert macro_relabeled == pytest.approx(macro, abs=1e-12)

    def test_none_class_excluded(self):
        ds = self.small_dataset()
        ds.relations = ["NA", "rel1", "rel2"]
        ds.none_relation_id = 0
        preds = [(bag.bag_id, bag.relation_id) for bag in ds.bags]
        per_class, _ = macro_f1(preds, ds)
        assert all(cls != 0 for cls, _, _, _ in per_class)

    def test_absent_class_excluded(self):
        ds = self.small_dataset()
        kept = [bag for bag in ds.bags if bag.relation_id != 2]
        ds.bags = kept
        preds = [(bag.bag_id, bag.relation_id) for bag in kept]
        per_class, macro = macro_f1(preds, ds)
        assert {cls for cls, *_ in per_class} == {0, 1}
        assert macro == 1.0

    def test_prediction_cover_mismatch_rejected(self):
        ds = self.small_dataset()
        with pytest.raises(EvalError):
            macro_f1([("missing", 0)], ds)


def trained_fixture(epochs=3):
    cfg = ModelConfig(word_dim=6, position_dim=4, max_distance=5, time_steps=10,
                      hidden_size=4, word_attention_hidden=5, word_attention_rows=2,
                      mlp_size=8, sent_attention_hidden=5, sent_attention_rows=2,
                      batch_size=8, epochs=epochs, seed=2,
                      precision="float32")
    spec = SynthSpec(num_relations=3, vocab_size=40, bags_per_relation=8,
                     max_bag_size=4, noise_ratio=0.4, seed=8)
    ds = generate_synthetic(spec, cfg)
    result = train(ds, cfg)
    return ds, result.model


class TestScoreTestSet:
    def test_full_mode_emits_every_bag_and_relation(self):
        ds, model = trained_fixture(epochs=0)
        records = score_test_set(ds, model)
        assert len(records) == len(ds.bags) * len(ds.relations)   # no none class here
        assert all(0.0 <= r.confidence <= 1.0 for r in records)

    def test_none_relation_never_emitted(self):
        ds, model = trained_fixture(epochs=0)
        ds.none_relation_id = 1
        records = score_test_set(ds, model)
        assert all(r.relation_id != 1 for r in records)
        assert len(records) == len(ds.bags) * 2

    def test_pn_excludes_single_instance_bags(self):
        ds, model = trained_fixture(epochs=0)
        multi = [bag for bag in ds.bags if len(bag.instances) > 1]
        for mode in ("one", "two", "all"):
            records = score_test_set(ds, model, pn=PnSetting(mode=mode, seed=1))
            assert {r.bag_id for r in records} == {bag.bag_id for bag in multi}

    def test_pn_sampling_deterministic(self):
        ds, model = trained_fixture(epochs=0)
        a = score_test_set(ds, model, pn=PnSetting(mode="one", seed=5))
        b = score_test_set(ds, model, pn=PnSetting(mode="one", seed=5))
        assert a == b
        c = score_test_set(ds, model, pn=PnSetting(mode="one", seed=6))
        assert a != c   # different instances get sampled

    def test_mode_one_uses_single_instance(self):
        ds, model = trained_fixture(epochs=0)
        bag = next(bag for bag in ds.bags if len(bag.instances) >= 3)
        setting = PnSetting(mode="one", seed=7)
        records = score_test_set(ds, model, pn=setting)
        got = sorted(r.confidence for r in records if r.bag_id == bag.bag_id)
        rng = np.random.default_rng(7)
        expected = None
        for b in ds.bags:
            if len(b.instances) < 2:
                continue
            picked = rng.choice(len(b.instances), size=1, replace=False)
            if b.bag_id == bag.bag_id:
                probs = model.forward(None, [[b.instances[picked[0]]]]).probabilities.value[0]
                expected = sorted(probs.tolist())
                break
        assert got == pytest.approx(expected)

    def test_mode_all_uses_every_instance(self):
        ds, model = trained_fixture(epochs=0)
        bag = next(bag for bag in ds.bags if len(bag.instances) == 3)
        records = score_test_set(ds, model, pn=PnSetting(mode="all", seed=0))
        got = sorted(r.confidence for r in records if r.bag_id == bag.bag_id)
        assert got == pytest.approx(sorted(model.predict_bag(bag).tolist()))

    def test_vocabulary_mismatch_rejected(self):
        ds, model = trained_fixture(epochs=0)
        ds.relations = ds.relations + ["extra"]
        with pytest.raises(EvalError, match="classes"):
            score_test_set(ds, model)

    def test_accuracy_and_hard_predictions(self):
        ds, model = trained_fixture(epochs=0)
        preds = hard_predictions(ds, model)
        assert len(preds) == len(ds.bags)
        acc = accuracy(preds, ds)
        assert 0.0 <= acc <= 1.0


def per_bag_records(ds, model, pn=None):
    """The per-bag loop: one forward pass per bag, instances drawn bag by bag."""
    rng = np.random.default_rng(pn.seed) if pn is not None else None
    out = []
    for bag in ds.bags:
        instances = bag.instances
        if pn is not None:
            if len(instances) < 2:
                continue
            if pn.mode != "all":
                count = 1 if pn.mode == "one" else 2
                picked = rng.choice(len(instances), size=count, replace=False)
                instances = [instances[i] for i in picked]
        probs = model.forward(None, [instances]).probabilities.value[0]
        out += [(bag.bag_id, rel, probs[rel]) for rel in range(len(ds.relations))
                if rel != ds.none_relation_id]
    return out


class TestBatchedScoring:
    """Scoring runs ``batch_size`` bags per pass and matches the per-bag loop."""

    def fixture(self):
        ds, model = trained_fixture(epochs=0)
        cfg = model.config.replace(precision="float64")
        model = Model(cfg, len(ds.vocab), len(ds.relations), rng=np.random.default_rng(4))
        assert len(ds.bags) > 2 * cfg.batch_size
        return ds, model

    def count_passes(self, model, monkeypatch):
        sizes = []
        forward = model.forward

        def counted(tape, instance_lists, *args, **kwargs):
            sizes.append(len(instance_lists))
            return forward(tape, instance_lists, *args, **kwargs)

        monkeypatch.setattr(model, "forward", counted)
        return sizes

    @pytest.mark.parametrize("mode", [None, "one", "two", "all"])
    def test_score_test_set_matches_per_bag_loop(self, mode, monkeypatch):
        ds, model = self.fixture()
        pn = None if mode is None else PnSetting(mode=mode, seed=3)
        expected = per_bag_records(ds, model, pn)
        sizes = self.count_passes(model, monkeypatch)
        got = score_test_set(ds, model, pn=pn)
        assert [(r.bag_id, r.relation_id) for r in got] == [e[:2] for e in expected]
        np.testing.assert_allclose([r.confidence for r in got], [e[2] for e in expected],
                                   rtol=1e-12, atol=0)
        scored = len({r.bag_id for r in got})
        batch = model.config.batch_size
        assert sizes == [min(batch, scored - i) for i in range(0, scored, batch)]

    def test_hard_predictions_match_per_bag_loop(self, monkeypatch):
        ds, model = self.fixture()
        expected = [(bag.bag_id, int(np.argmax(model.predict_bag(bag)))) for bag in ds.bags]
        sizes = self.count_passes(model, monkeypatch)
        assert hard_predictions(ds, model) == expected
        assert len(sizes) == -(-len(ds.bags) // model.config.batch_size)


class TestExportAttention:
    def test_csv_contents(self, tmp_path):
        ds, model = trained_fixture(epochs=1)
        bag = next(bag for bag in ds.bags if len(bag.instances) >= 2)
        paths = export_attention(model, bag, ds.vocab, tmp_path)
        word_files = [p for p in paths if "word_attn" in p.name]
        sent_files = [p for p in paths if "sent_attn" in p.name]
        assert len(word_files) == len(bag.instances)
        assert len(sent_files) == 1

        with word_files[0].open() as fh:
            rows = list(csv.reader(fh))
        header, body, total = rows[0], rows[1:-1], rows[-1]
        assert len(header) - 1 == model.config.time_steps
        matrix = np.array([[float(x) for x in row[1:]] for row in body])
        assert matrix.shape[0] == model.config.word_attention_rows
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-6)
        # the summed row must equal the column-wise sum, recomputed by this reader
        np.testing.assert_allclose([float(x) for x in total[1:]], matrix.sum(axis=0),
                                   atol=1e-9)
        assert total[0] == "sum"

        with sent_files[0].open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows[0]) - 1 == len(bag.instances)
        mean_row = np.array([float(x) for x in rows[-1][1:]])
        assert mean_row.sum() == pytest.approx(1.0, abs=1e-6)

    def test_word_csv_keeps_every_position(self, tmp_path):
        # word attention stops at the bag's longest true length; the export
        # must still hold all T token columns, with the values of attention
        # taken over all T positions and exact zeros on padding
        ds, model = trained_fixture(epochs=1)
        cfg, t_steps = model.config, model.config.time_steps
        bag = next(bag for bag in ds.bags if len(bag.instances) >= 2
                   and max(i.true_length for i in bag.instances) < t_steps)
        paths = export_attention(model, bag, ds.vocab, tmp_path)

        instances = bag.instances
        lengths = np.array([inst.true_length for inst in instances])
        embedded = enc.embed_batch(None, instances, model.embeddings, cfg)
        run = enc.bilstm_encode_batch(None, embedded, lengths, model.lstm).value
        hidden = np.zeros(run.shape[:2] + (t_steps,), run.dtype)   # [n x 2u x T], zero past t_run
        hidden[:, :, :run.shape[2]] = run
        valid = (np.arange(t_steps) < lengths[:, None])[:, None, :]
        full = wa.word_attention_matrix(None, Node(hidden), model.word_attn, valid).value

        for j, inst in enumerate(instances):
            with paths[j].open() as fh:
                rows = list(csv.reader(fh))
            pad = t_steps - inst.true_length
            assert rows[0] == ["row"] + ds.vocab.decode(inst.token_ids) + [BLANK_TOKEN] * pad
            assert [len(row) for row in rows] == [t_steps + 1] * (len(full[j]) + 2)
            body = rows[1:-1]
            assert [row[0] for row in body] == [f"r{r}" for r in range(len(full[j]))]
            matrix = np.array([[float(x) for x in row[1:]] for row in body])
            np.testing.assert_array_equal(matrix, full[j])
            assert all(x == "0.0" for row in rows[1:] for x in row[1 + inst.true_length:])

    def test_single_instance_bag_mean_is_exactly_one(self, tmp_path):
        ds, model = trained_fixture(epochs=0)
        bag = next(bag for bag in ds.bags if len(bag.instances) == 1)
        paths = export_attention(model, bag, ds.vocab, tmp_path)
        sent_file = [p for p in paths if "sent_attn" in p.name][0]
        with sent_file.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[-1][0] == "mean"
        assert float(rows[-1][1]) == 1.0
