"""Loader, encoding, batching, and synthetic-generator tests."""

import json
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relattn.config import ModelConfig
from relattn.data import (BLANK_TOKEN, UNK_ID, DataError, Instance, SynthSpec, Vocab,
                          contains_pattern, dataset_from_records, encode_instance,
                          generate_synthetic, generate_synthetic_records, load_dataset,
                          make_batches, position_buckets, read_embedding_file,
                          relation_patterns, save_records_jsonl)
from relattn.encoder import BatchPlan, embed_batch
from relattn.model import Model

CFG = ModelConfig(time_steps=70)


def bag_record(bag_id="b1", head="alice", tail="york", relation="lives_in",
               tokens=None, head_index=0, tail_index=2):
    tokens = tokens if tokens is not None else ["alice", "visited", "york"]
    return {"bag_id": bag_id, "head": head, "tail": tail, "relation": relation,
            "sentences": [{"tokens": tokens, "head_index": head_index,
                           "tail_index": tail_index}]}


def write_jsonl(tmp_path, records, name="data.jsonl"):
    path = tmp_path / name
    with path.open("w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


class TestVocab:
    def test_reserved_ids(self):
        vocab = Vocab.build(["b", "a", "b"])
        assert vocab.id_to_token[:2] == ["<BLANK>", "<UNK>"]
        assert vocab.token_to_id["a"] == 2 and vocab.token_to_id["b"] == 3

    def test_unknown_maps_to_unk(self):
        vocab = Vocab.build(["a"])
        assert vocab.encode(["a", "zzz"]) == [2, UNK_ID]

    def test_bijective_over_regular_tokens(self):
        vocab = Vocab.build("the quick brown fox".split())
        for token, idx in vocab.token_to_id.items():
            assert vocab.id_to_token[idx] == token

    def test_id_map_is_built_from_the_list(self):
        vocab = Vocab(["<BLANK>", "<UNK>", "a"])
        assert vocab.token_to_id == {"<BLANK>": 0, "<UNK>": 1, "a": 2}
        with pytest.raises(TypeError):   # the map is no constructor input
            Vocab({"a": 0}, ["a"])

    def test_repeated_token_rejected(self):
        # id 2 would have a row that no token reaches
        with pytest.raises(ValueError, match="lists 'a' twice"):
            Vocab(["<BLANK>", "<UNK>", "a", "b", "a"])

    def test_decode_inverts_encode_including_blank(self):
        tokens = ["the", BLANK_TOKEN, "fox", BLANK_TOKEN]
        vocab = Vocab.build(tokens)
        assert vocab.decode(vocab.encode(tokens)) == tokens


class TestInstance:
    def test_true_length_is_the_kept_token_count(self):
        inst = Instance(np.array([4, 2, 3], dtype=np.int64), 0, 2)
        assert inst.true_length == 3 and not inst.degenerate
        with pytest.raises(AttributeError):
            inst.true_length = 70

    def test_old_positional_true_length_rejected(self):
        # an Instance takes exactly (ids, head, tail)
        with pytest.raises(TypeError):
            Instance(np.array([4, 2, 3], dtype=np.int64), 0, 2, 3)

    def test_degenerate_is_derived_from_the_positions(self):
        ids = np.array([4, 2, 3], dtype=np.int64)
        assert Instance(ids, 0, 0).degenerate is True
        assert Instance(ids, 2, 0).degenerate is False

    def test_int64_ids_are_kept_as_given(self):
        ids = np.array([4, 2, 3], dtype=np.int64)
        assert Instance(ids, 0, 2).token_ids is ids

    @pytest.mark.parametrize("ids", [np.array([]), [], np.array([4, 2, 3], dtype=np.int32),
                                     np.array([4, 2, 3], dtype=np.uint8), [4, 2, 3]],
                             ids=["empty-float", "empty-list", "int32", "uint8", "list"])
    def test_other_ids_stored_as_int64(self, ids):
        inst = Instance(ids, 0, 0)
        assert inst.token_ids.dtype == np.int64
        assert inst.token_ids.tolist() == list(ids)

    @pytest.mark.parametrize("ids", [np.array([4.0, 2.0]), [4.0], np.array([True])])
    def test_non_integer_ids_rejected(self, ids):
        with pytest.raises(TypeError, match="token_ids"):
            Instance(ids, 0, 0)

    def test_forward_on_a_batch_mixing_converted_and_empty_instances(self):
        cfg = ModelConfig(word_dim=4, position_dim=2, max_distance=3, time_steps=5,
                          hidden_size=3, word_attention_hidden=3, word_attention_rows=2,
                          mlp_size=4, sent_attention_hidden=3, sent_attention_rows=2,
                          precision="float64")
        model = Model(cfg, 8, 3, rng=np.random.default_rng(0))
        ids = [[2, 5, 3], [6, 7], [4, 2, 2, 5]]

        def forward(bag_ids):
            return model.forward(None, [[Instance(i, 0, 1) for i in bag] for bag in bag_ids])

        want = forward([[np.array(ids[0]), np.array(ids[1])], [np.array(ids[2])]])
        got = forward([[np.array(ids[0], dtype=np.int32), ids[1]], [np.array(ids[2])]])
        np.testing.assert_array_equal(got.probabilities.value, want.probabilities.value)
        # a sentence with no tokens has nothing to attend over: a ValueError
        # that says so, not an IndexError from a float id array
        with pytest.raises(ValueError, match="no token ids"):
            forward([[np.array(ids[0]), np.array([])], [np.array(ids[2])]])


class TestEncodeInstance:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_positions_match_np_clip(self, time_steps, data):
        box = data.draw(st.sampled_from([int, np.int64, np.int32]))
        head, tail = (data.draw(st.integers(-3, 3 * time_steps)) for _ in range(2))
        tokens = [f"w{k}" for k in range(data.draw(st.integers(1, 2 * time_steps)))]
        vocab = Vocab.build(tokens)
        inst = encode_instance(tokens, box(head), box(tail), vocab, time_steps)
        want = [int(np.clip(i, 0, time_steps - 1)) for i in (head, tail)]
        assert [inst.head_pos, inst.tail_pos] == want
        assert type(inst.head_pos) is int and type(inst.tail_pos) is int
        assert inst.degenerate == (want[0] == want[1])
        assert inst.token_ids.dtype == np.int64
        assert inst.token_ids.tolist() == vocab.encode(tokens[:time_steps])

    @pytest.mark.parametrize("overrides", [{}, {"time_steps": 6}], ids=["synth", "t6"])
    def test_criterion6_records_match_np_clip_reference(self, overrides):
        # the records of acceptance criterion 6's training set; at 6 steps
        # most sentences are truncated and many positions clipped
        config = ModelConfig.from_profile("synth", seed=3, **overrides)
        records = generate_synthetic_records(SynthSpec(5, 200, 400, 5, 0.5, seed=11))
        ds = dataset_from_records(records, config)
        t = config.time_steps
        sentences = [sent for rec in records for sent in rec["sentences"]]
        instances = [inst for bag in ds.bags for inst in bag.instances]
        assert len(instances) == len(sentences) > 5000
        clipped = 0
        for sent, inst in zip(sentences, instances):
            head, tail = (int(np.clip(sent[k], 0, t - 1)) for k in ("head_index", "tail_index"))
            clipped += (head, tail) != (sent["head_index"], sent["tail_index"])
            assert inst.token_ids.tolist() == ds.vocab.encode(sent["tokens"][:t])
            assert inst.token_ids.dtype == np.int64
            assert (inst.head_pos, inst.tail_pos, inst.degenerate) == (head, tail, head == tail)
        assert clipped > 0 or not overrides


class TestLoader:
    def test_short_sentence_keeps_only_its_tokens(self, tmp_path):
        ds = load_dataset(write_jsonl(tmp_path, [bag_record()]), CFG)
        inst = ds.bags[0].instances[0]
        assert inst.token_ids.dtype == np.int64
        assert inst.token_ids.tolist() == ds.vocab.encode(["alice", "visited", "york"])
        assert inst.true_length == 3

    def test_long_sentence_truncated_and_positions_clipped(self, tmp_path):
        tokens = [f"t{i}" for i in range(90)]
        rec = bag_record(tokens=tokens, head="t0", tail="t85", head_index=0, tail_index=85)
        ds = load_dataset(write_jsonl(tmp_path, [rec]), CFG)
        inst = ds.bags[0].instances[0]
        assert inst.token_ids.tolist() == ds.vocab.encode(tokens[:70])
        assert inst.true_length == 70
        assert inst.tail_pos == 69
        assert inst.head_pos == 0

    def test_same_pair_different_relations_stay_distinct(self, tmp_path):
        recs = [bag_record(bag_id="b1", relation="r_a"),
                bag_record(bag_id="b2", relation="r_b")]
        ds = load_dataset(write_jsonl(tmp_path, recs), CFG)
        assert len(ds.bags) == 2
        assert ds.bags[0].relation_id != ds.bags[1].relation_id

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(bag_record()) + "\n{not json\n")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(path, CFG)

    @pytest.mark.parametrize("line", [
        "5",
        json.dumps({**bag_record(), "sentences": ["oops"]}),
        json.dumps(bag_record(tokens=["x", 3, "y"])),
        json.dumps(bag_record(relation=["r"])),
        # JSON's \ud800 escapes load as lone surrogates, which UTF-8 cannot encode
        *(json.dumps(bag_record(**{key: "r\ud800"})) for key in ("bag_id", "head", "tail",
                                                                 "relation")),
        json.dumps(bag_record(tokens=["alice", "x\udc00", "york"])),
        # a bool is an int to Python: true used to load as index 1
        json.dumps(bag_record(head_index=True)),
        json.dumps(bag_record(tail_index=True)),
    ], ids=["number", "sentence_not_object", "token_not_string", "relation_not_string",
            "bag_id_surrogate", "head_surrogate", "tail_surrogate", "relation_surrogate",
            "token_surrogate", "head_index_bool", "tail_index_bool"])
    def test_malformed_record_reports_line(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(bag_record()) + "\n" + line + "\n")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(path, CFG)

    def test_missing_index_rejected(self, tmp_path):
        rec = bag_record()
        del rec["sentences"][0]["tail_index"]
        with pytest.raises(DataError, match="tail_index"):
            load_dataset(write_jsonl(tmp_path, [rec]), CFG)

    def test_index_out_of_range_rejected(self, tmp_path):
        rec = bag_record(head_index=7)
        with pytest.raises(DataError, match="head_index"):
            load_dataset(write_jsonl(tmp_path, [rec]), CFG)

    def test_relation_ids_sorted_and_dense(self, tmp_path):
        recs = [bag_record(bag_id=f"b{i}", relation=rel)
                for i, rel in enumerate(["zeta", "alpha", "NA"])]
        ds = load_dataset(write_jsonl(tmp_path, recs), CFG)
        assert ds.relations == ["NA", "alpha", "zeta"]
        assert ds.none_relation_id == 0

    def test_none_relation_absent(self, tmp_path):
        ds = load_dataset(write_jsonl(tmp_path, [bag_record()]), CFG)
        assert ds.none_relation_id is None

    def test_loading_twice_is_identical(self, tmp_path):
        recs = generate_synthetic_records(SynthSpec(bags_per_relation=3, seed=9))
        path = write_jsonl(tmp_path, recs)
        a, b = load_dataset(path, CFG), load_dataset(path, CFG)
        assert a.relations == b.relations
        assert a.vocab.id_to_token == b.vocab.id_to_token
        for bag_a, bag_b in zip(a.bags, b.bags):
            assert bag_a.bag_id == bag_b.bag_id
            for ia, ib in zip(bag_a.instances, bag_b.instances):
                np.testing.assert_array_equal(ia.token_ids, ib.token_ids)

    def test_degenerate_entity_flagged_not_rejected(self, tmp_path):
        rec = bag_record(tokens=["only", "one"], head="only", tail="only",
                         head_index=0, tail_index=0)
        ds = load_dataset(write_jsonl(tmp_path, [rec]), CFG)
        assert ds.bags[0].instances[0].degenerate

    def test_unknown_relation_rejected_under_fixed_vocabulary(self, tmp_path):
        path = write_jsonl(tmp_path, [bag_record(relation="novel")])
        with pytest.raises(DataError, match="novel"):
            load_dataset(path, CFG, relations=["lives_in"])

    def test_decode_round_trip(self, tmp_path):
        tokens = ["alice", "went", "to", "york"]
        rec = bag_record(tokens=tokens, head_index=0, tail_index=3)
        ds = load_dataset(write_jsonl(tmp_path, [rec]), CFG)
        inst = ds.bags[0].instances[0]
        assert ds.vocab.decode(inst.token_ids) == tokens


def entity_buckets(inst, max_distance):
    """Head and tail buckets of an instance's tokens."""
    steps = np.arange(inst.true_length)
    return (position_buckets(steps - inst.head_pos, max_distance),
            position_buckets(steps - inst.tail_pos, max_distance))


class TestRelativePositions:
    def test_head_token_gets_center_bucket(self):
        ds = dataset_from_records([bag_record()], CFG)
        inst = ds.bags[0].instances[0]
        head_b, _ = entity_buckets(inst, max_distance=30)
        assert head_b[inst.head_pos] == 30

    def test_clipping(self):
        rec = bag_record(tokens=[f"t{i}" for i in range(50)], head="t40", tail="t41",
                         head_index=40, tail_index=41)
        ds = dataset_from_records([rec], CFG)
        head_b, _ = entity_buckets(ds.bags[0].instances[0], max_distance=30)
        assert head_b[0] == 0   # distance -40 clipped to -30 -> bucket 0

    def test_hand_oracle(self):
        rec = bag_record(tokens=["a", "b", "c", "d", "e"], head="b", tail="d",
                         head_index=1, tail_index=3)
        cfg = ModelConfig(time_steps=5)
        ds = dataset_from_records([rec], cfg)
        head_b, tail_b = entity_buckets(ds.bags[0].instances[0], max_distance=30)
        assert head_b.tolist() == [29, 30, 31, 32, 33]
        assert tail_b.tolist() == [27, 28, 29, 30, 31]

    def test_padding_bucket(self):
        # the tables' last row, the old padding bucket, is never read: poisoning
        # it leaves a mixed-length batch's embedding finite
        cfg = ModelConfig(word_dim=4, position_dim=4, max_distance=2, time_steps=6,
                          precision="float64")
        tables = Model(cfg, 6, 2, rng=np.random.default_rng(0)).embeddings
        tables.head_position.value[-1] = tables.tail_position.value[-1] = np.nan
        instances = [Instance(np.array(ids, dtype=np.int64), head, tail)
                     for ids, head, tail in (([2, 3, 4, 5, 2, 3], 0, 5), ([4], 0, 0),
                                             ([5, 2, 3], 2, 5), ([], 0, 0))]
        plan = BatchPlan.of([inst.true_length for inst in instances])
        assert np.isfinite(embed_batch(None, instances, plan, tables, cfg).value).all()

    def test_batched_hand_oracle(self):
        # one row per entity; distances past +-max_distance clip
        distances = np.arange(5) - np.array([[1], [4], [0]])
        buckets = position_buckets(distances, max_distance=2)
        assert buckets.tolist() == [[1, 2, 3, 4, 4], [0, 0, 0, 1, 2], [2, 3, 4, 4, 4]]

    @settings(max_examples=40)
    @given(st.integers(1, 12), st.integers(1, 30), st.data())
    def test_buckets_in_range(self, length, max_distance, data):
        tokens = [f"t{i}" for i in range(length)]
        hi = data.draw(st.integers(0, length - 1))
        ti = data.draw(st.integers(0, length - 1))
        cfg = ModelConfig(time_steps=8)
        ds = dataset_from_records([bag_record(tokens=tokens, head=tokens[hi], tail=tokens[ti],
                                              head_index=hi, tail_index=ti)], cfg)
        head_b, tail_b = entity_buckets(ds.bags[0].instances[0], max_distance)
        for buckets in (head_b, tail_b):
            assert buckets.min() >= 0
            assert buckets.max() <= 2 * max_distance


class TestBatches:
    def make_dataset(self, n):
        recs = [bag_record(bag_id=f"b{i}") for i in range(n)]
        return dataset_from_records(recs, CFG)

    def test_single_small_batch(self):
        assert [len(b) for b in make_batches(self.make_dataset(10), 64, seed=0)] == [10]

    def test_last_batch_smaller(self):
        sizes = [len(b) for b in make_batches(self.make_dataset(130), 64, seed=0)]
        assert sizes == [64, 64, 2]

    def test_deterministic_per_seed(self):
        ds = self.make_dataset(30)
        ids = lambda batches: [[bag.bag_id for bag in batch] for batch in batches]
        assert ids(make_batches(ds, 8, seed=5)) == ids(make_batches(ds, 8, seed=5))
        assert ids(make_batches(ds, 8, seed=5)) != ids(make_batches(ds, 8, seed=6))

    def test_empty_dataset_rejected(self):
        ds = self.make_dataset(1)
        ds.bags = []
        with pytest.raises(DataError):
            make_batches(ds, 4, seed=0)


class TestSynthetic:
    @pytest.mark.parametrize("bad", [{"num_relations": 1}, {"seed": -1}],
                             ids=["one_relation", "negative_seed"])
    def test_spec_is_checked_when_built(self, bad):
        with pytest.raises(ValueError):
            SynthSpec(**bad)

    def test_spec_cannot_be_assigned(self):
        with pytest.raises(FrozenInstanceError):
            SynthSpec().seed = 1

    def test_zero_noise_means_all_instances_carry_pattern(self):
        spec = SynthSpec(bags_per_relation=6, noise_ratio=0.0, seed=1)
        ds = generate_synthetic(spec)
        patterns = relation_patterns(spec.num_relations, spec.vocab_size)
        for bag in ds.bags:
            for inst in bag.instances:
                assert contains_pattern(ds.vocab.decode(inst.token_ids),
                                        patterns[bag.relation_id])

    def test_every_bag_keeps_a_valid_instance(self):
        spec = SynthSpec(bags_per_relation=40, noise_ratio=0.9, seed=2)
        ds = generate_synthetic(spec)
        patterns = relation_patterns(spec.num_relations, spec.vocab_size)
        for bag in ds.bags:
            hits = [contains_pattern(ds.vocab.decode(i.token_ids), patterns[bag.relation_id])
                    for i in bag.instances]
            assert any(hits)

    def test_noise_fraction_near_requested(self):
        spec = SynthSpec(bags_per_relation=120, max_bag_size=4, noise_ratio=0.5, seed=3)
        ds = generate_synthetic(spec)
        patterns = relation_patterns(spec.num_relations, spec.vocab_size)
        noisy = total = 0
        for bag in ds.bags:
            if len(bag.instances) < 2:
                continue
            for inst in bag.instances:
                total += 1
                noisy += not contains_pattern(ds.vocab.decode(inst.token_ids),
                                              patterns[bag.relation_id])
        assert 0.40 < noisy / total < 0.55   # forced-valid rule pulls slightly below 0.5

    def test_noise_never_contains_any_pattern(self):
        spec = SynthSpec(bags_per_relation=30, noise_ratio=0.7, seed=4)
        ds = generate_synthetic(spec)
        patterns = relation_patterns(spec.num_relations, spec.vocab_size)
        for bag in ds.bags:
            for inst in bag.instances:
                toks = ds.vocab.decode(inst.token_ids)
                assert not any(contains_pattern(toks, p)
                               for k, p in enumerate(patterns) if k != bag.relation_id)

    def test_deterministic_bytes(self, tmp_path):
        spec = SynthSpec(bags_per_relation=10, seed=5)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_records_jsonl(generate_synthetic_records(spec), p1)
        save_records_jsonl(generate_synthetic_records(spec), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_train_test_share_patterns_and_vocab(self):
        a = generate_synthetic(SynthSpec(bags_per_relation=5, seed=1))
        b = generate_synthetic(SynthSpec(bags_per_relation=5, seed=99))
        assert a.vocab.id_to_token == b.vocab.id_to_token
        assert a.relations == b.relations

    def test_record_schema_loads_back(self, tmp_path):
        recs = generate_synthetic_records(SynthSpec(bags_per_relation=4, seed=6))
        path = write_jsonl(tmp_path, recs)
        ds = load_dataset(path, ModelConfig.from_profile("synth"))
        assert len(ds.bags) == len(recs)


class TestEmbeddingFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "emb.txt"
        for end in ("", " "):   # word2vec's text output ends each line in a space
            path.write_text(f"2 3\nfoo 1.0 2.0 3.0{end}\nbar -1.0 0.5 0.25{end}\n")
            table = read_embedding_file(path, word_dim=3)
            np.testing.assert_array_equal(table["foo"], [1.0, 2.0, 3.0])
            np.testing.assert_array_equal(table["bar"], [-1.0, 0.5, 0.25])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("nope\nfoo 1.0\n")
        with pytest.raises(DataError, match="count dim"):
            read_embedding_file(path, word_dim=1)

    def test_wrong_dimension_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        for end in ("", " "):
            path.write_text(f"1 3\nfoo 1.0 2.0{end}\n")
            with pytest.raises(DataError, match="line 2"):
                read_embedding_file(path, word_dim=3)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\nfoo 1.0 2.0\nbar 1.0 abc\n")
        with pytest.raises(DataError, match="line 3"):
            read_embedding_file(path, word_dim=2)

    def test_underscore_in_a_value_rejected(self, tmp_path):
        # Python's float reads 1_0 as 10, a spelling no word-vector file uses
        path = tmp_path / "emb.txt"
        for bad in ("1_0", "1_000.5", "_1", "1e1_0"):
            path.write_text(f"2 2\nfoo_bar 1.0 2.0\nbar 1.0 {bad}\n")
            with pytest.raises(DataError, match="line 3: non-numeric"):
                read_embedding_file(path, word_dim=2)
        path.write_text("1 2\nnew_york 1.0 2.0\n")   # a token may hold '_'
        np.testing.assert_array_equal(read_embedding_file(path, word_dim=2)["new_york"],
                                      [1.0, 2.0])

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        for bad in ("nan", "inf", "-inf"):
            path.write_text(f"2 2\nfoo 1.0 2.0\nbar 1.0 {bad}\n")
            with pytest.raises(DataError, match="line 3: non-finite"):
                read_embedding_file(path, word_dim=2)

    def test_dimension_other_than_word_dim_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\nfoo 1.0 2.0 3.0\n")
        assert read_embedding_file(path, word_dim=3)["foo"].shape == (3,)
        with pytest.raises(DataError, match="dim 3, but word_dim is 4"):
            read_embedding_file(path, word_dim=4)

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\nfoo 1.0 2.0\n")
        with pytest.raises(DataError, match="claims 2"):
            read_embedding_file(path, word_dim=2)
