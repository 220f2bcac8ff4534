"""Loss assembly, Adam, the training loop, determinism, and checkpoints."""

from pathlib import Path

import numpy as np
import pytest

from relattn import autodiff as ad
from relattn import training as tr
from relattn.autodiff import Parameter, Tape
from relattn.config import ModelConfig
from relattn.data import DataError, Dataset, SynthSpec, generate_synthetic
from relattn.model import Model
from relattn.training import (Checkpoint, CheckpointError, TrainingDiverged, adam_step,
                              checkpoint_from, load_checkpoint, model_from_checkpoint,
                              save_checkpoint, total_loss, train, write_loss_log)


CLASSES = 3   # relations of every small dataset below


def small_config(**kw):
    base = dict(word_dim=6, position_dim=4, max_distance=5, time_steps=8, hidden_size=4,
                word_attention_hidden=5, word_attention_rows=2, mlp_size=8,
                sent_attention_hidden=5, sent_attention_rows=2,
                batch_size=8, epochs=2, seed=1, precision="float64")
    base.update(kw)
    return ModelConfig(**base)


def small_dataset(config, bags_per_relation=6, seed=0):
    spec = SynthSpec(num_relations=CLASSES, vocab_size=40,
                     bags_per_relation=bags_per_relation, max_bag_size=3,
                     noise_ratio=0.3, seed=seed)
    return generate_synthetic(spec, config)


def fresh_model(config, dataset, seed=None):
    rng = np.random.default_rng(config.seed if seed is None else seed)
    return Model(config, len(dataset.vocab), len(dataset.relations), rng=rng)


class TestTotalLoss:
    def test_perfect_prediction_gives_near_zero(self):
        cfg = small_config(penalty_coef=0.0, l2_coef=0.0)
        ds = small_dataset(cfg)
        model = fresh_model(cfg, ds)
        bag = ds.bags[0]
        model.sent_attn.class_weight.value[...] = 0.0
        model.sent_attn.class_bias.value[...] = 0.0
        model.sent_attn.class_bias.value[bag.relation_id] = 60.0
        loss, parts = total_loss(None, [bag], model)
        assert loss.value.item() == pytest.approx(0.0, abs=1e-9)
        assert parts["penalty"] == 0.0 and parts["l2"] == 0.0

    def test_uniform_classifier_gives_log_c(self):
        cfg = small_config(penalty_coef=0.0, l2_coef=0.0)
        ds = small_dataset(cfg)
        model = fresh_model(cfg, ds)
        model.sent_attn.class_weight.value[...] = 0.0
        model.sent_attn.class_bias.value[...] = 0.0
        loss, _ = total_loss(None, ds.bags[:4], model)
        assert loss.value.item() == pytest.approx(np.log(CLASSES), abs=1e-9)

    def test_penalty_term_included_by_default(self):
        cfg = small_config()   # penalty_coef 1.0
        ds = small_dataset(cfg)
        model = fresh_model(cfg, ds)
        loss, parts = total_loss(None, ds.bags[:3], model)
        assert parts["penalty"] > 0.0
        assert parts["l2"] > 0.0
        assert loss.value.item() == pytest.approx(parts["ce"] + parts["penalty"] + parts["l2"],
                                                  abs=1e-9)

    def test_taped_and_untaped_loss_agree(self):
        cfg = small_config()   # penalty_coef 1.0
        ds = small_dataset(cfg)
        model = fresh_model(cfg, ds)
        untaped, untaped_parts = total_loss(None, ds.bags[:3], model)
        taped, taped_parts = total_loss(Tape(), ds.bags[:3], model)
        assert untaped_parts["penalty"] > 0.0
        assert untaped.value.item() == taped.value.item() and untaped_parts == taped_parts

    def test_invariant_under_bag_order(self):
        cfg = small_config()
        ds = small_dataset(cfg)
        model = fresh_model(cfg, ds)
        bags = ds.bags[:5]
        a, _ = total_loss(None, bags, model)
        b, _ = total_loss(None, list(reversed(bags)), model)
        assert abs(a.value.item() - b.value.item()) <= 1e-9
        assert a.value.item() == b.value.item()   # sorted-bag-id order makes it exact

    def test_empty_batch_rejected(self):
        cfg = small_config()
        ds = small_dataset(cfg)
        with pytest.raises(ValueError):
            total_loss(None, [], fresh_model(cfg, ds))


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = Parameter("p", np.array([[1.0, 2.0]]))
        adam_step([p], small_config())
        np.testing.assert_array_equal(p.value, [[1.0, 2.0]])

    def test_first_step_closed_form(self):
        cfg = ModelConfig()   # learning rate 0.001
        p = Parameter("p", np.array([[0.0]]))
        p.grad[...] = 1.0
        adam_step([p], cfg)
        expected = -cfg.learning_rate / (1.0 + cfg.adam_eps)
        assert p.value.item() == pytest.approx(expected, rel=1e-12)
        assert p.step == 1

    def test_default_learning_rate_is_one_thousandth(self):
        assert ModelConfig().learning_rate == 1e-3

    def test_zero_learning_rate_freezes(self):
        cfg = small_config()
        cfg.learning_rate = 0.0   # bypasses validate(): direct field poke
        p = Parameter("p", np.array([[3.0]]))
        p.grad[...] = 2.5
        adam_step([p], cfg)
        assert p.value.item() == 3.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_update_matches_plain_formula_bit_for_bit(self, dtype):
        # shapes that split into uneven row blocks, one row per block, and one block
        cfg = small_config()
        b1, b2, eps, lr = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps, cfg.learning_rate
        rng = np.random.default_rng(4)
        shapes = [(300, 500), (2, ad.ROW_BLOCK + 3), (1200, 1), (3, 4)]
        params = [Parameter(f"p{i}", rng.normal(size=shape).astype(dtype))
                  for i, shape in enumerate(shapes)]
        plain = [dict(value=p.value.copy(), m=np.zeros_like(p.value),
                      s=np.zeros_like(p.value)) for p in params]
        for step in range(1, 5):
            for p, ref in zip(params, plain):
                g = (rng.normal(size=p.value.shape) * 10.0 ** rng.integers(-6, 2)).astype(dtype)
                g[rng.random(g.shape) < 0.1] = 0.0
                p.grad[...] = g
                # the update as written before it ran in place
                ref["m"] *= b1
                ref["m"] += (1.0 - b1) * g
                ref["s"] *= b2
                ref["s"] += (1.0 - b2) * g * g
                m_hat = ref["m"] / (1.0 - b1 ** step)
                s_hat = ref["s"] / (1.0 - b2 ** step)
                ref["value"] -= lr * m_hat / (np.sqrt(s_hat) + eps)
            adam_step(params, cfg)
            for p, ref in zip(params, plain):
                assert p.value.dtype == dtype and p.step == step
                for key in ("value", "m", "s"):
                    np.testing.assert_array_equal(getattr(p, key), ref[key])

    @pytest.mark.parametrize("grad_clip", [0.0, 0.5])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_store_matches_standalone_parameters_bit_for_bit(self, dtype, grad_clip):
        # the store's leaf spans several row blocks, with tensors across their edges
        cfg = small_config(precision=dtype, grad_clip=grad_clip, word_dim=40)
        model = Model(cfg, 4000, CLASSES, rng=np.random.default_rng(2))
        (store,) = model.parameters()
        assert store.value.shape[0] > 2 * ad.ROW_BLOCK
        views = model.named_parameters()
        standalone = {name: Parameter(name, v.value.copy()) for name, v in views.items()}
        rng = np.random.default_rng(3)
        for step in range(1, 4):
            model.zero_grad()
            for name, p in standalone.items():
                views[name].grad[...] = p.grad[...] = rng.normal(size=p.value.shape) * 0.01
            per_tensor_norm = tr.clip_gradients(standalone.values(), 0.0)
            norm = tr.clip_gradients(model.parameters(), cfg.grad_clip)
            assert norm == pytest.approx(per_tensor_norm, rel=1e-6)
            assert not grad_clip or norm > grad_clip   # the clip acts
            for name, p in standalone.items():   # the reference takes the clipped gradient
                p.grad[...] = views[name].grad
            adam_step(model.parameters(), cfg)
            adam_step(standalone.values(), cfg)
            assert store.step == step
            for name, p in standalone.items():
                assert p.step == step
                np.testing.assert_array_equal(views[name].value, p.value, err_msg=name)

    def test_clip_gradients_scales_to_norm(self):
        p = Parameter("p", np.zeros((1, 2)))
        p.grad[...] = [[3.0, 4.0]]
        norm = tr.clip_gradients([p], 1.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(p.grad, [[0.6, 0.8]])


class TestTrainLoop:
    def test_zero_epochs_returns_initialization(self):
        cfg = small_config(epochs=0)
        ds = small_dataset(cfg)
        result = train(ds, cfg)
        reference = fresh_model(cfg, ds)
        for name, p in result.model.named_parameters().items():
            np.testing.assert_array_equal(p.value, reference.named_parameters()[name].value)
        assert result.log == []

    def test_loss_drops_below_initial_uniform_level(self):
        cfg = small_config(epochs=8, precision="float32", batch_size=6)
        ds = small_dataset(cfg, bags_per_relation=8)
        result = train(ds, cfg)
        last_epoch = [r for r in result.log if r.epoch == cfg.epochs - 1]
        mean_ce = sum(r.ce for r in last_epoch) / len(last_epoch)
        assert mean_ce < np.log(CLASSES)

    def test_same_seed_identical_logs(self):
        cfg = small_config(precision="float32")
        ds = small_dataset(cfg)
        log_a = train(ds, cfg).log
        log_b = train(ds, cfg).log
        assert log_a == log_b

    def test_fewer_than_two_relations_rejected(self, monkeypatch):
        cfg = small_config()
        ds = small_dataset(cfg)
        one = Dataset([b for b in ds.bags if b.relation_id == 0], ds.vocab, ds.relations[:1])
        monkeypatch.setattr(tr, "Model", None)   # the check comes before any model is built
        with pytest.raises(DataError, match="at least 2"):
            train(one, cfg)

    def test_non_finite_loss_aborts_with_location(self, monkeypatch):
        cfg = small_config(epochs=1)
        ds = small_dataset(cfg)

        def bad_loss(tape, bags, model, dropout_rng=None):
            from relattn.autodiff import Node
            return Node(np.array([[np.nan]])), {"ce": np.nan, "penalty": 0.0, "l2": 0.0}

        monkeypatch.setattr(tr, "total_loss", bad_loss)
        with pytest.raises(TrainingDiverged, match="epoch 0, batch 0"):
            train(ds, cfg)

    def test_non_finite_gradient_aborts_with_location(self, monkeypatch):
        cfg = small_config(epochs=1)
        ds = small_dataset(cfg)
        real_zero_grad = Model.zero_grad

        def poisoned_zero_grad(self):   # backward adds onto the NaN, the loss stays finite
            real_zero_grad(self)
            self.lstm.fwd.w_in.grad[0, 0] = np.nan

        monkeypatch.setattr(Model, "zero_grad", poisoned_zero_grad)
        with pytest.raises(TrainingDiverged, match="gradient at epoch 0, batch 0"):
            train(ds, cfg)

    def test_loss_decreases_over_early_epochs_for_most_seeds(self):
        # smoke property: epoch-mean loss strictly decreases over the first
        # 5 epochs in at least 9 of 10 seeds
        wins = 0
        for seed in range(10):
            cfg = small_config(epochs=5, seed=seed, precision="float32", batch_size=10)
            ds = small_dataset(cfg, bags_per_relation=20, seed=seed + 50)
            result = train(ds, cfg)
            means = []
            for epoch in range(cfg.epochs):
                rows = [r for r in result.log if r.epoch == epoch]
                means.append(sum(r.loss for r in rows) / len(rows))
            wins += all(b < a for a, b in zip(means, means[1:]))
        assert wins >= 9

    def test_dropout_hook_runs_and_stays_deterministic(self):
        cfg = small_config(dropout=0.3, precision="float32", epochs=1)
        ds = small_dataset(cfg)
        assert train(ds, cfg).log == train(ds, cfg).log

    def test_grad_clip_hook_runs(self):
        cfg = small_config(grad_clip=0.5, precision="float32", epochs=1)
        ds = small_dataset(cfg)
        assert len(train(ds, cfg).log) > 0

    def test_write_loss_log_format(self, tmp_path):
        cfg = small_config(epochs=1, precision="float32")
        ds = small_dataset(cfg)
        result = train(ds, cfg)
        path = tmp_path / "log.csv"
        write_loss_log(result.log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,batch,loss,penalty,ce,l2"
        assert len(lines) == len(result.log) + 1


class TestCheckpoint:
    def roundtrip(self, tmp_path, cfg=None):
        cfg = cfg or small_config(precision="float32", epochs=1)
        ds = small_dataset(cfg)
        result = train(ds, cfg)
        ckpt = checkpoint_from(result.model, ds.vocab, ds.relations, result.rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        return ds, result.model, path

    def test_forward_identical_after_reload(self, tmp_path):
        ds, model, path = self.roundtrip(tmp_path)
        loaded_model, loaded_vocab = model_from_checkpoint(load_checkpoint(path))
        assert loaded_vocab.id_to_token == ds.vocab.id_to_token
        for bag in ds.bags[:5]:
            np.testing.assert_array_equal(model.predict_bag(bag),
                                          loaded_model.predict_bag(bag))

    def test_save_twice_bit_identical(self, tmp_path):
        ds, model, path = self.roundtrip(tmp_path)
        ckpt = load_checkpoint(path)
        again = tmp_path / "again.ckpt"
        save_checkpoint(ckpt, again)
        assert path.read_bytes() == again.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"hello world\n")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        blob = path.read_bytes().replace(b"relattn-checkpoint 1\n",
                                         b"relattn-checkpoint 9\n", 1)
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_class_count_mismatch_rejected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        ckpt = load_checkpoint(path)
        wrong = Checkpoint(ckpt.config, ckpt.tensors,
                           ckpt.relations + [f"extra{i}" for i in range(7)],
                           ckpt.tokens, ckpt.rng_state)
        with pytest.raises(ValueError, match="class_weight"):
            model_from_checkpoint(wrong)

    def test_v1_header_with_mask_padding_true_loads(self, tmp_path):
        ds, model, path = self.roundtrip(tmp_path)
        blob = path.read_bytes()
        assert b"mask_padding" not in blob   # new checkpoints no longer write the key
        old = tmp_path / "old.ckpt"
        old.write_bytes(blob.replace(b"\nconfig ", b"\nconfig mask_padding true\nconfig ", 1))
        loaded, _ = model_from_checkpoint(load_checkpoint(old))
        for bag in ds.bags[:3]:
            np.testing.assert_array_equal(model.predict_bag(bag), loaded.predict_bag(bag))

    def test_v1_header_with_matching_num_classes_loads(self, tmp_path):
        ds, model, path = self.roundtrip(tmp_path)
        blob = path.read_bytes()
        assert b"num_classes" not in blob   # new checkpoints no longer write the key
        old = tmp_path / "old.ckpt"
        old.write_bytes(blob.replace(b"\nconfig ", b"\nconfig num_classes 3\nconfig ", 1))
        loaded, _ = model_from_checkpoint(load_checkpoint(old))
        for bag in ds.bags[:3]:
            np.testing.assert_array_equal(model.predict_bag(bag), loaded.predict_bag(bag))

    @pytest.mark.parametrize("value", [b"4", b"2", b"null"])
    def test_v1_num_classes_must_equal_the_relation_count(self, value, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        blob = path.read_bytes().replace(b"\nconfig ", b"\nconfig num_classes " + value
                                         + b"\nconfig ", 1)
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match="num_classes disagrees with its 3 relations"):
            load_checkpoint(path)

    def test_shipped_v1_checkpoint_loads(self):
        path = Path(__file__).resolve().parents[1] / "bench" / "assets" / "synth_model.ckpt"
        assert b"config mask_padding true\n" in path.read_bytes()
        model, vocab = model_from_checkpoint(load_checkpoint(path))
        assert len(vocab) == model.vocab_size

    def test_mask_padding_false_rejected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        blob = path.read_bytes().replace(b"\nconfig ", b"\nconfig mask_padding false\nconfig ", 1)
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match="mask_padding false"):
            load_checkpoint(path)

    def test_unknown_config_key_rejected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        blob = path.read_bytes().replace(b"config seed", b"config sede", 1)
        path.write_bytes(blob)
        with pytest.raises(Exception, match="sede"):
            load_checkpoint(path)
