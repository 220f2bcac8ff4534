"""End-to-end command-line tests: profiles, exit codes, file outputs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relattn.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, build_parser, main
from relattn.config import ModelConfig
from relattn.model import Model

SRC = Path(__file__).resolve().parents[1] / "src"

SMALL_TRAIN = [
    "--set", "word_dim=6", "--set", "position_dim=4", "--set", "max_distance=5",
    "--set", "time_steps=10", "--set", "hidden_size=4",
    "--set", "word_attention_hidden=5", "--set", "word_attention_rows=2",
    "--set", "mlp_size=8", "--set", "sent_attention_hidden=5",
    "--set", "sent_attention_rows=2", "--set", "batch_size=8",
    "--set", "epochs=2",
]


@pytest.fixture(scope="module")
def synth_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.jsonl"
    code = main(["gen-synth", "--out", str(path), "--relations", "3", "--vocab", "40",
                 "--bags", "30", "--max-bag", "3", "--noise", "0.3", "--seed", "4"])
    assert code == EXIT_OK
    return path


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_file):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--data", str(synth_file), "--out", str(out)] + SMALL_TRAIN)
    assert code == EXIT_OK
    return out


class TestProfiles:
    def test_nyt_profile(self):
        cfg = ModelConfig.from_profile("nyt")
        assert (cfg.word_dim, cfg.batch_size) == (200, 64)
        assert (cfg.word_attention_rows, cfg.sent_attention_rows) == (9, 9)

    def test_pt_profile(self):
        cfg = ModelConfig.from_profile("pt")
        assert (cfg.word_dim, cfg.batch_size) == (300, 50)
        assert (cfg.word_attention_rows, cfg.sent_attention_rows) == (5, 3)

    def test_shared_settings(self):
        for name in ("nyt", "pt"):
            cfg = ModelConfig.from_profile(name)
            assert cfg.time_steps == 70
            assert cfg.learning_rate == 1e-3
            assert cfg.hidden_size == 300
            assert cfg.mlp_size == 1000
            assert cfg.penalty_coef == 1.0
            assert cfg.position_dim == 50

    def test_set_override_enables_1d_sentence_attention(self):
        cfg = ModelConfig.from_profile("pt", sent_attention_rows=1)
        assert cfg.sent_attention_rows == 1

    def test_unknown_profile(self):
        with pytest.raises(Exception, match="unknown profile"):
            ModelConfig.from_profile("wsj")


class TestParser:
    def test_help_lists_config_keys(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        text = capsys.readouterr().out
        for key in ModelConfig.field_names():
            assert key in text

    def test_gen_synth_defaults_match_harness(self):
        args = build_parser().parse_args(["gen-synth", "--out", "x.jsonl"])
        assert (args.relations, args.vocab, args.bags) == (5, 200, 2000)
        assert (args.max_bag, args.noise) == (5, 0.5)

    def test_usage_error_exit_code(self):
        assert main(["train", "--nonsense"]) == EXIT_USAGE

    def test_unknown_config_key_exit_code(self, synth_file, tmp_path):
        code = main(["train", "--data", str(synth_file), "--out", str(tmp_path),
                     "--set", "tyme_steps=70"])
        assert code == EXIT_USAGE

    def test_bad_set_syntax(self, synth_file, tmp_path):
        code = main(["train", "--data", str(synth_file), "--out", str(tmp_path),
                     "--set", "batch_size"])
        assert code == EXIT_USAGE


class TestGradcheckCommand:
    def test_fresh_build_passes(self, capsys):
        assert main(["gradcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "max rel err" in out
        assert "FAIL" not in out
        assert "full_model_total_loss" in out


class TestGenSynth:
    def test_noise_zero(self, tmp_path):
        path = tmp_path / "clean.jsonl"
        assert main(["gen-synth", "--out", str(path), "--relations", "3", "--vocab", "40",
                     "--bags", "9", "--noise", "0"]) == EXIT_OK
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 9

    def test_fixed_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["--relations", "3", "--vocab", "40", "--bags", "12", "--seed", "7"]
        assert main(["gen-synth", "--out", str(a)] + args) == EXIT_OK
        assert main(["gen-synth", "--out", str(b)] + args) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_indivisible_bag_count(self, tmp_path):
        assert main(["gen-synth", "--out", str(tmp_path / "x.jsonl"),
                     "--relations", "3", "--bags", "10"]) == EXIT_USAGE

    @pytest.mark.parametrize("relations", ["0", "-2"])
    def test_too_few_relations(self, relations, tmp_path, capsys):
        # checked before the bag count is divided by it
        assert main(["gen-synth", "--out", str(tmp_path / "x.jsonl"),
                     "--relations", relations, "--bags", "10"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "x.jsonl").exists()


class TestTrainEval:
    def test_train_writes_checkpoint_and_log(self, trained_dir):
        assert (trained_dir / "model.ckpt").exists()
        log = (trained_dir / "loss_log.csv").read_text().splitlines()
        assert log[0] == "epoch,batch,loss,penalty,ce,l2"
        assert len(log) > 1

    def test_missing_data_file_exit_code(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path)] + SMALL_TRAIN)
        assert code == EXIT_DATA

    def test_eval_pr(self, trained_dir, synth_file, tmp_path):
        out = tmp_path / "pr"
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--data", str(synth_file), "--metric", "pr", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "pr_curve.csv").read_text().splitlines()
        assert lines[0] == "rank,precision,recall"
        assert len(lines) == 30 * 3 + 1   # every bag x non-none relations

    def test_eval_pn(self, trained_dir, synth_file, tmp_path):
        out = tmp_path / "pn"
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--data", str(synth_file), "--metric", "pn", "--pn-mode", "all",
                     "--n", "5,10,20", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "p_at_n.csv").read_text().splitlines()
        assert lines[0] == "setting,n,precision"
        assert len(lines) == 4
        assert all(line.startswith("all,") for line in lines[1:])

    @pytest.mark.parametrize("bad", ["abc", "5,x", "0,10", ""])
    def test_eval_pn_bad_n_is_usage_error(self, trained_dir, synth_file, tmp_path, capsys,
                                          bad):
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--data", str(synth_file), "--metric", "pn", "--n", bad,
                     "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument --n") and len(err.splitlines()) == 1

    def test_eval_f1(self, trained_dir, synth_file, tmp_path):
        out = tmp_path / "f1"
        code = main(["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--data", str(synth_file), "--metric", "f1", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "macro_f1.csv").read_text().splitlines()
        assert lines[0] == "class,precision,recall,f1"
        assert lines[-1].startswith("macro,")

    def test_eval_missing_checkpoint(self, synth_file, tmp_path):
        code = main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                     "--data", str(synth_file), "--metric", "pr", "--out", str(tmp_path)])
        assert code == EXIT_DATA

    def test_attn_export(self, trained_dir, synth_file, tmp_path):
        records = [json.loads(line) for line in synth_file.read_text().splitlines()]
        bag_id = records[0]["bag_id"]
        out = tmp_path / "attn"
        code = main(["attn-export", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--data", str(synth_file), "--bag-id", bag_id, "--out", str(out)])
        assert code == EXIT_OK
        files = list(out.iterdir())
        assert any("word_attn" in f.name for f in files)
        assert any("sent_attn" in f.name for f in files)

    def test_attn_export_unknown_bag(self, trained_dir, synth_file, tmp_path):
        code = main(["attn-export", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--data", str(synth_file), "--bag-id", "no_such_bag",
                     "--out", str(tmp_path)])
        assert code == EXIT_DATA

    def test_attn_export_writes_nothing_when_an_id_is_missing(self, trained_dir, synth_file,
                                                              tmp_path, capsys):
        # a known id before an unknown one: every id is looked up before
        # the first file is written
        bag_id = json.loads(synth_file.read_text().splitlines()[0])["bag_id"]
        out = tmp_path / "attn"
        code = main(["attn-export", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--data", str(synth_file), "--bag-id", bag_id, "--bag-id", "no_such_bag",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_DATA
        assert captured.err.startswith("data error: bag 'no_such_bag' not found")
        assert captured.out == "" and not list(out.glob("*.csv"))

    def test_attn_export_runs_a_repeated_id_once(self, trained_dir, synth_file, tmp_path,
                                                 capsys):
        records = [json.loads(line) for line in synth_file.read_text().splitlines()]
        bag_id = next(r["bag_id"] for r in records if len(r["sentences"]) == 3)
        out = tmp_path / "attn"
        code = main(["attn-export", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--data", str(synth_file), "--bag-id", bag_id, "--bag-id", bag_id,
                     "--out", str(out)])
        printed = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK
        # three word-attention files and one sentence-attention file, each once
        assert len(printed) == 4
        assert sorted(printed) == sorted(str(f) for f in out.iterdir())

    def test_attn_export_refuses_ids_with_one_file_stem(self, trained_dir, synth_file,
                                                         tmp_path, capsys):
        # 'a/b' and 'a b' both map to the stem a_b, so the second bag's files
        # would overwrite the first's
        lines = synth_file.read_text().splitlines()
        renamed = [json.dumps({**json.loads(line), "bag_id": bag_id})
                   for line, bag_id in zip(lines, ["a/b", "a b"])]
        data = tmp_path / "stems.jsonl"
        data.write_text("\n".join(renamed + lines[2:]) + "\n")
        out = tmp_path / "attn"
        code = main(["attn-export", "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--data", str(data), "--bag-id", "a/b", "--bag-id", "a b",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == ("usage error: --bag-id 'a/b' and 'a b' would both write "
                                "a_b_*.csv\n")
        assert captured.out == "" and not out.exists()

    def test_config_file_with_cli_override(self, synth_file, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        values = {k.split("=")[0]: json.loads(k.split("=")[1]) for k in SMALL_TRAIN[1::2]}
        cfg_path.write_text(json.dumps(values))
        out = tmp_path / "run"
        code = main(["train", "--data", str(synth_file), "--out", str(out),
                     "--config", str(cfg_path), "--set", "epochs=1"])
        assert code == EXIT_OK

    def test_non_finite_gradient_exit_code(self, synth_file, tmp_path, monkeypatch, capsys):
        real_zero_grad = Model.zero_grad

        def poisoned_zero_grad(self):
            real_zero_grad(self)
            self.sent_attn.class_bias.grad[0, 0] = np.inf

        monkeypatch.setattr(Model, "zero_grad", poisoned_zero_grad)
        code = main(["train", "--data", str(synth_file), "--out", str(tmp_path)] + SMALL_TRAIN)
        assert code == EXIT_VERIFY
        assert "non-finite gradient at epoch 0, batch 0" in capsys.readouterr().err

    # version-1 files carry Adam's constants; they shaped the optimizer, not the model
    def test_v1_adam_line_is_dropped(self, trained_dir, synth_file, tmp_path):
        plain = trained_dir / "model.ckpt"
        with_adam = tmp_path / "adam.ckpt"
        with_adam.write_bytes(plain.read_bytes().replace(
            b"\nrelations ", b"\nconfig adam_beta1 0.5\nrelations ", 1))
        for metric, name in (("pr", "pr_curve.csv"), ("pn", "p_at_n.csv"), ("f1", "macro_f1.csv")):
            outputs = []
            for ckpt in (plain, with_adam):
                out = tmp_path / f"{metric}-{ckpt.stem}"
                assert main(["eval", "--checkpoint", str(ckpt), "--data", str(synth_file),
                             "--metric", metric, "--n", "5,10", "--out", str(out)]) == EXIT_OK
                outputs.append((out / name).read_bytes())
            assert outputs[0] == outputs[1]

    def test_train_determinism_bit_identical(self, synth_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["train", "--data", str(synth_file)] + SMALL_TRAIN + ["--set", "epochs=1"]
        assert main(args + ["--out", str(out_a)]) == EXIT_OK
        assert main(args + ["--out", str(out_b)]) == EXIT_OK
        assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()
        assert (out_a / "loss_log.csv").read_text() == (out_b / "loss_log.csv").read_text()


class TestBadOut:
    """An --out that cannot be made a directory fails before any work is done."""

    @pytest.mark.parametrize("below", [False, True])
    @pytest.mark.parametrize("command", ["train", "eval", "attn-export"])
    def test_usage_error_before_any_work(self, command, below, trained_dir, synth_file,
                                         tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        out = taken / "sub" if below else taken
        ckpt = str(trained_dir / "model.ckpt")
        bag_id = json.loads(synth_file.read_text().splitlines()[0])["bag_id"]
        args = {
            "train": ["train", "--data", str(synth_file)] + SMALL_TRAIN,
            "eval": ["eval", "--checkpoint", ckpt, "--data", str(synth_file),
                     "--metric", "pr"],
            "attn-export": ["attn-export", "--checkpoint", ckpt, "--data", str(synth_file),
                            "--bag-id", bag_id],
        }[command]
        code = main(args + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert re.fullmatch(r"usage error: --out \S+: cannot make the output directory "
                            r"\(.+\)\n", captured.err)
        assert captured.out == ""   # no epoch line, nothing scored or exported
        assert taken.read_text() == "a file\n"


def _replace_header_line(blob: bytes, kind: bytes, new_line: bytes) -> bytes:
    start = blob.index(b"\n" + kind + b" ") + 1
    end = blob.index(b"\n", start)
    return blob[:start] + new_line + blob[end:]


def _tensor_section(blob: bytes, name: str) -> tuple[int, int, int]:
    """Where tensor ``name``'s header line starts, its data start and end."""
    start = blob.index(f"tensor {name} ".encode())   # may follow binary data, not a newline
    data = blob.index(b"\n", start) + 1
    rows, cols = map(int, blob[start:data].split()[2:])
    return start, data, data + 4 * rows * cols


def _nan_tensor(blob: bytes, name: str) -> bytes:
    _, data, end = _tensor_section(blob, name)
    return blob[:data] + np.full((end - data) // 4, np.nan, dtype="<f4").tobytes() + blob[end:]


def _before_end(blob: bytes, section: bytes) -> bytes:
    assert blob.endswith(b"end\n")
    return blob[:-len(b"end\n")] + section + b"end\n"


def _repeat_tensor(blob: bytes, name: str) -> bytes:
    start, _, end = _tensor_section(blob, name)
    return _before_end(blob, blob[start:end])


def _header_line(blob: bytes, kind: bytes) -> bytes:
    """The ``kind`` header line, with its newline."""
    start = blob.index(b"\n" + kind + b" ") + 1
    return blob[start:blob.index(b"\n", start) + 1]


def _edit_list(blob: bytes, kind: bytes, i: int, j: int, swap: bool = False) -> bytes:
    """The ``kind`` header list with entry ``i`` copied over entry ``j``, or
    the two swapped; the list keeps its length."""
    start = blob.index(b"\n" + kind + b" ") + len(kind) + 2
    values = json.loads(blob[start:blob.index(b"\n", start)])
    if swap:
        values[i], values[j] = values[j], values[i]
    else:
        values[j] = values[i]
    return _replace_header_line(blob, kind, kind + b" " + json.dumps(values).encode())


def _with_lone_surrogate(blob: bytes, kind: bytes) -> bytes:
    """The ``kind`` header list with a lone surrogate added to its last entry."""
    start = blob.index(b"\n" + kind + b" ") + len(kind) + 2
    values = json.loads(blob[start:blob.index(b"\n", start)])
    values[-1] += "\ud800"
    return _replace_header_line(blob, kind, kind + b" " + json.dumps(values).encode())


CORRUPTIONS = {
    "vocab_disagrees_with_tensors": lambda blob: _replace_header_line(
        blob, b"tokens", b'tokens ["<BLANK>", "<UNK>", "only"]'),
    "broken_json": lambda blob: _replace_header_line(blob, b"relations", b'relations ["r0", '),
    "not_utf8": lambda blob: _replace_header_line(blob, b"relations", b'relations ["\xff\xfe"]'),
    "bad_config_value": lambda blob: _replace_header_line(
        blob, b"config word_dim", b"config word_dim 0"),
    "tokens_not_a_list": lambda blob: _replace_header_line(blob, b"tokens", b"tokens 5"),
    "relations_not_a_list": lambda blob: _replace_header_line(blob, b"relations", b"relations 7"),
    "rng_not_an_object": lambda blob: _replace_header_line(blob, b"rng", b"rng [1, 2]"),
    "negative_tensor_size": lambda blob: _replace_header_line(
        blob, b"tensor word_emb", b"tensor word_emb -1 32"),
    "oversized_tensor": lambda blob: _replace_header_line(
        blob, b"tensor word_emb", b"tensor word_emb 4000000000 1000000"),
    "non_finite_tensor": lambda blob: _nan_tensor(blob, "class_bias"),
    "unknown_tensor": lambda blob: _before_end(
        blob, b"tensor extra 1 1\n" + np.zeros(1, dtype="<f4").tobytes()),
    "duplicate_tensor": lambda blob: _repeat_tensor(blob, "class_bias"),
    # a second copy of a header line, valid on its own
    "repeated_config_key": lambda blob: _before_end(blob, b"config seed 99\n"),
    "repeated_section": lambda blob: _before_end(blob, _header_line(blob, b"relations")),
    # a version-1 header line, checked against the three relations
    "num_classes_disagrees_with_relations": lambda blob: blob.replace(
        b"\nrelations ", b"\nconfig num_classes 4\nrelations ", 1),
    "negative_seed": lambda blob: _replace_header_line(
        blob, b"config seed", b"config seed -1"),
    # each keeps the list's length, so only the repeat or the order is wrong
    "repeated_token": lambda blob: _edit_list(blob, b"tokens", 2, 3),
    "repeated_relation": lambda blob: _edit_list(blob, b"relations", 0, 2),
    "reserved_tokens_moved": lambda blob: _edit_list(blob, b"tokens", 0, 1, swap=True),
    "lone_surrogate_token": lambda blob: _with_lone_surrogate(blob, b"tokens"),
    "lone_surrogate_relation": lambda blob: _with_lone_surrogate(blob, b"relations"),
}


@pytest.fixture(scope="module")
def two_relation_file(synth_file, tmp_path_factory):
    """The bags of the first two of the three relations: a test file that
    lacks a relation, so a relations line that repeats an entry in place of
    the missing one still covers every bag."""
    lines = synth_file.read_text().splitlines()
    kept = sorted({json.loads(line)["relation"] for line in lines})[:2]
    path = tmp_path_factory.mktemp("data") / "two.jsonl"
    path.write_text("".join(line + "\n" for line in lines
                            if json.loads(line)["relation"] in kept))
    return path


class TestBadCheckpoint:
    @pytest.mark.parametrize("mode", sorted(CORRUPTIONS))
    def test_eval_exits_3_with_one_line(self, mode, trained_dir, two_relation_file, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(CORRUPTIONS[mode]((trained_dir / "model.ckpt").read_bytes()))
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-m", "relattn", "eval", "--checkpoint", str(bad),
             "--data", str(two_relation_file), "--metric", "pr",
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_DATA
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("data error: ")
        assert len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["eval", "attn-export"])
    def test_lone_surrogate_relation_exits_3_with_one_line(self, command, trained_dir,
                                                           synth_file, tmp_path):
        # eval --metric f1 names every relation and used to end in a
        # UnicodeEncodeError traceback, as did attn-export
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(_with_lone_surrogate((trained_dir / "model.ckpt").read_bytes(),
                                             b"relations"))
        bag_id = json.loads(synth_file.read_text().splitlines()[0])["bag_id"]
        extra = ["--metric", "f1"] if command == "eval" else ["--bag-id", bag_id]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-m", "relattn", command, "--checkpoint", str(bad),
             "--data", str(synth_file), "--out", str(tmp_path / "out")] + extra,
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_DATA
        assert proc.stderr == (f"data error: {bad}: 'relations' header line holds a "
                               "lone surrogate\n")


# an input that names a directory, or a file that is not UTF-8 text:
# (command, the argument that names it, kind, exit code, stderr prefix)
UNREADABLE_INPUTS = [
    ("train", "--data", "dir", EXIT_DATA, "data error: "),
    ("train", "--data", "latin1", EXIT_DATA, "data error: "),
    ("train", "--embeddings", "dir", EXIT_DATA, "data error: "),
    ("train", "--embeddings", "latin1", EXIT_DATA, "data error: "),
    ("train", "--config", "dir", EXIT_DATA, "data error: "),
    ("train", "--config", "latin1", EXIT_USAGE, "config error: "),
    ("eval", "--checkpoint", "dir", EXIT_DATA, "data error: "),
    ("eval", "--data", "dir", EXIT_DATA, "data error: "),
    ("eval", "--data", "latin1", EXIT_DATA, "data error: "),
    ("gen-synth", "--out", "dir", EXIT_USAGE, "usage error: "),
]


@pytest.mark.parametrize("command, flag, kind, exit_code, prefix", UNREADABLE_INPUTS,
                         ids=[f"{c}{f}-{k}" for c, f, k, _, _ in UNREADABLE_INPUTS])
def test_unreadable_input_ends_in_one_line(command, flag, kind, exit_code, prefix,
                                           synth_file, trained_dir, tmp_path, capsys):
    bad = tmp_path / "bad"
    if kind == "dir":
        bad.mkdir()
    else:
        bad.write_bytes("caf\u00e9 2\n".encode("latin-1"))
    args = {
        "train": ["train", "--data", str(synth_file), "--out", str(tmp_path / "out")]
                 + SMALL_TRAIN,
        "eval": ["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                 "--data", str(synth_file), "--metric", "pr", "--out", str(tmp_path / "out")],
        "gen-synth": ["gen-synth", "--bags", "10"],
    }[command] + [flag, str(bad)]   # a repeated flag takes its last value
    code = main(args)
    captured = capsys.readouterr()
    assert code == exit_code
    assert captured.err.startswith(prefix) and str(bad) in captured.err
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert "epoch" not in captured.out


# accuracy, Macro F1 and attn-export key bags by id, so a repeated id would
# score or export one bag in place of another
@pytest.mark.parametrize("command", ["train", "eval"])
def test_repeated_bag_id_is_one_data_line(command, synth_file, trained_dir, tmp_path):
    lines = synth_file.read_text().splitlines()
    repeat = json.loads(lines[0])["bag_id"]
    second = {**json.loads(lines[1]), "bag_id": repeat}
    data = tmp_path / "repeat.jsonl"
    data.write_text("\n".join([lines[0], json.dumps(second)] + lines[2:]) + "\n")
    args = {
        "train": ["train", "--data", str(data), "--out", str(tmp_path / "out")] + SMALL_TRAIN,
        "eval": ["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                 "--data", str(data), "--metric", "f1", "--out", str(tmp_path / "out")],
    }[command]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "relattn"] + args,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_DATA
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"data error: {data}: bag id {repeat!r} names more than one bag\n"


# a negative seed is refused before any file is read or written, not by
# numpy's generator
@pytest.mark.parametrize("command", ["gen-synth", "eval"])
def test_negative_seed_is_one_usage_line(command, synth_file, trained_dir, tmp_path):
    args = {
        "gen-synth": ["gen-synth", "--out", str(tmp_path / "x.jsonl"), "--seed", "-3"],
        "eval": ["eval", "--checkpoint", str(trained_dir / "model.ckpt"),
                 "--data", str(synth_file), "--metric", "pn", "--seed", "-1",
                 "--out", str(tmp_path / "out")],
    }[command]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "relattn"] + args,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("usage error: seed must be >= 0, got -")
    assert len(proc.stderr.strip().splitlines()) == 1
    assert not (tmp_path / "x.jsonl").exists() and not (tmp_path / "out").exists()


def _bag_line(relation: str = "r", token: str = "x", head_index=0) -> str:
    return json.dumps({"bag_id": "odd", "head": "a", "tail": "b", "relation": relation,
                       "sentences": [{"tokens": ["a", token, "b"], "head_index": head_index,
                                      "tail_index": 2}]})


BAD_TRAIN_INPUTS = {
    # (data line replacing the first bag, embeddings file text)
    "record_not_an_object": ("5", None),
    # JSON's \ud800 escapes load as lone surrogates, which no output can encode
    "lone_surrogate_relation": (_bag_line(relation="r\ud800"), None),
    "lone_surrogate_token": (_bag_line(token="x\udc00"), None),
    # a bool is an int to Python: true used to load as index 1
    "bool_head_index": (_bag_line(head_index=True), None),
    "embedding_not_numeric": (None, "2 6\nw001 1 2 3 4 5 6\nw002 1 2 3 x 5 6\n"),
    "embedding_dim_not_word_dim": (None, "1 3\nw001 1 2 3\n"),
    "embedding_not_finite": (None, "2 6\nw001 1 2 3 nan inf 6\nw002 1 2 3 4 5 6\n"),
}


class TestBadTrainInput:
    @pytest.mark.parametrize("mode", sorted(BAD_TRAIN_INPUTS))
    def test_train_exits_3_with_one_line(self, mode, synth_file, tmp_path):
        line, embeddings = BAD_TRAIN_INPUTS[mode]
        data = tmp_path / "train.jsonl"
        lines = synth_file.read_text().splitlines()
        data.write_text("\n".join([line or lines[0]] + lines[1:]) + "\n")
        extra = []
        if embeddings is not None:
            (tmp_path / "emb.txt").write_text(embeddings)
            extra = ["--embeddings", str(tmp_path / "emb.txt")]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-m", "relattn", "train", "--data", str(data),
             "--out", str(tmp_path / "out")] + SMALL_TRAIN + extra,
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_DATA
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("data error: ")
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_repeated_embedding_token_is_named(self, synth_file, tmp_path):
        # the line names the repeat, not the vector count it leaves short
        emb = tmp_path / "emb.txt"
        emb.write_text("2 2\nfoo 1 2\nfoo 3 4\n")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-m", "relattn", "train", "--data", str(synth_file),
             "--out", str(tmp_path / "out")] + SMALL_TRAIN
            + ["--set", "word_dim=2", "--embeddings", str(emb)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_DATA
        assert proc.stderr == (f"data error: {emb}: line 3: token 'foo' already has "
                               f"a vector on line 2\n")

    def _train_with(self, setting, synth_file, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        return subprocess.run(
            [sys.executable, "-m", "relattn", "train", "--data", str(synth_file),
             "--out", str(tmp_path / "out")] + SMALL_TRAIN + ["--set", setting],
            capture_output=True, text=True, env=env, timeout=120)

    def test_one_relation_exits_3_before_any_epoch(self, synth_file, tmp_path):
        lines = synth_file.read_text().splitlines()
        first = json.loads(lines[0])["relation"]
        data = tmp_path / "one.jsonl"
        data.write_text("".join(line + "\n" for line in lines
                                if json.loads(line)["relation"] == first))
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-m", "relattn", "train", "--data", str(data),
             "--out", str(tmp_path / "out")] + SMALL_TRAIN,
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_DATA
        assert re.fullmatch(r"data error: training data names 1 relation\(s\) .*; "
                            r"at least 2 are needed\n", proc.stderr)
        assert "epoch" not in proc.stdout
        assert not (tmp_path / "out" / "model.ckpt").exists()

    # the class count is the training data's relation list, and Adam's
    # constants are fixed: none of them is a config key, whatever its value
    @pytest.mark.parametrize("key, value", [
        ("num_classes", 3), ("adam_beta1", 0.9), ("adam_beta2", 0.999), ("adam_eps", 1e-8),
    ], ids=["num_classes", "adam_beta1", "adam_beta2", "adam_eps"])
    def test_retired_key_is_an_unknown_key(self, key, value, synth_file, tmp_path):
        proc = self._train_with(f"{key}={value}", synth_file, tmp_path)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == f"config error: unknown config keys: {key}\n"
        assert not (tmp_path / "out").exists()

    def test_config_file_with_num_classes_is_rejected(self, synth_file, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "num_classes": 3}))
        code = main(["train", "--data", str(synth_file), "--out", str(tmp_path / "out"),
                     "--config", str(cfg_path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "config error: unknown config keys: num_classes\n"

    # sizes far beyond any address space, so the one allocation fails before
    # it touches memory
    def _assert_too_large(self, setting, synth_file, tmp_path, capsys):
        code = main(["train", "--data", str(synth_file), "--out", str(tmp_path / "out")]
                    + SMALL_TRAIN + ["--set", setting])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert re.fullmatch(r"config error: \d+ parameter entries of float32 do not fit "
                            r"in memory\n", err)

    def test_tensor_too_large_to_allocate_is_config_error(self, synth_file, tmp_path, capsys):
        self._assert_too_large("hidden_size=100000000", synth_file, tmp_path, capsys)

    @pytest.mark.parametrize("key", ["hidden_size", "word_dim"])
    def test_entry_count_beyond_int64_is_config_error(self, key, synth_file, tmp_path, capsys):
        self._assert_too_large(f"{key}={10**19}", synth_file, tmp_path, capsys)

    # --set values are JSON: each has a type its key does not admit
    @pytest.mark.parametrize("setting", [
        'word_dim="abc"', "word_dim=2.5", "epochs=null", 'dropout="x"',
        'learning_rate="0.1"', "seed=1.5", "grad_clip=[1]", "batch_size=true",
    ])
    def test_bad_value_type_is_config_error(self, setting, synth_file, tmp_path):
        proc = self._train_with(setting, synth_file, tmp_path)
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"config error: {setting.partition('=')[0]} must be ")
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    # well-typed values out of range: NaN and Infinity parse as JSON floats
    @pytest.mark.parametrize("setting", [
        "learning_rate=NaN", "learning_rate=Infinity", "l2_coef=Infinity",
        "penalty_coef=-1", "l2_coef=-1", "grad_clip=NaN", "seed=-1",
    ])
    def test_bad_value_range_is_config_error(self, setting, synth_file, tmp_path):
        proc = self._train_with(setting, synth_file, tmp_path)
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"config error: {setting.partition('=')[0]} must ")
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()
