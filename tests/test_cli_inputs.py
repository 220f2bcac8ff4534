"""Every bad input to the CLI ends in a documented exit code and one line.

Valid data records and the header lines of a small checkpoint, each mutated
once or twice by hypothesis, run through ``cli.main`` in-process under
``train``, ``eval`` and ``attn-export``, and mutated ``--config`` and
``--embeddings`` files under ``train``; so do data, config and embedding
files with bytes that are not UTF-8. Every run must return 0-3 and raise
nothing, and a run that fails must write exactly one line to stderr.
The example counts keep the module's tier-1 cost to a few seconds.
"""

import contextlib
import io
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from relattn.cli import main

TINY = {"word_dim": 4, "position_dim": 2, "max_distance": 3, "time_steps": 6,
        "hidden_size": 3, "word_attention_hidden": 3, "word_attention_rows": 2,
        "mlp_size": 4, "sent_attention_hidden": 3, "sent_attention_rows": 2,
        "batch_size": 2, "epochs": 1}


def record(k: int, relation: str) -> dict:
    return {"bag_id": f"b{k}", "head": "h", "tail": "t", "relation": relation,
            "sentences": [{"tokens": ["h", "w", "t"], "head_index": 0, "tail_index": 2},
                          {"tokens": ["x", "t", "y", "h"], "head_index": 3, "tail_index": 1}]}


RECORDS = [record(0, "r1"), record(1, "r2"), record(2, "NA")]
BAG_KEYS = ("bag_id", "head", "tail", "relation", "sentences")
SENTENCE_KEYS = ("tokens", "head_index", "tail_index")

# a wrong type at any key, bools where ints belong, huge ints, NaN and the
# infinities, empty strings and lists, and lone surrogates; ints that would
# size a large but allocatable model are left out, so no run can take much memory
BAD = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from([2**31, 2**63, 2**64, 10**30, -2**70]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "\ud800", "r\udfff", "NA"]), st.text(max_size=3),
    st.just([]), st.just({}), st.lists(st.sampled_from([1, "w", None, True]), max_size=2))


def _mutable(rec) -> list:
    """(container, keys) pairs of a record that a mutation may change."""
    found = [(rec, BAG_KEYS)] if isinstance(rec, dict) else []
    sentences = rec.get("sentences") if isinstance(rec, dict) else None
    for sent in sentences if isinstance(sentences, list) else []:
        if isinstance(sent, dict):
            found.append((sent, SENTENCE_KEYS))
            if isinstance(sent.get("tokens"), list) and sent["tokens"]:
                found.append((sent["tokens"], range(len(sent["tokens"]))))
    return found


@st.composite
def mutated_records(draw) -> list:
    records = json.loads(json.dumps(RECORDS))
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(0, len(records) - 1))
        choices = _mutable(records[k])
        if not choices:
            records[k] = draw(BAD)
            continue
        container, keys = draw(st.sampled_from(choices))
        key = draw(st.sampled_from(list(keys)))
        if isinstance(container, dict) and draw(st.booleans()):
            container.pop(key, None)
        else:
            container[key] = draw(BAD)
    return records


def split_checkpoint(blob: bytes) -> list[list[bytes]]:
    """A checkpoint's lines, each with the tensor bytes that follow it."""
    parts, pos = [], 0
    while pos < len(blob):
        end = blob.index(b"\n", pos) + 1
        line, payload = blob[pos:end], b""
        if line.startswith(b"tensor "):
            _, _, rows, cols = line.split()
            payload = blob[end:end + 4 * int(rows) * int(cols)]
        parts.append([line, payload])
        pos = end + len(payload)
    return parts


@st.composite
def mutated_checkpoint(draw, blob: bytes) -> bytes:
    parts = split_checkpoint(blob)
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(0, len(parts) - 1))
        line = parts[k][0].decode().rstrip("\n")
        action = draw(st.sampled_from(["value", "value", "drop", "repeat", "payload"]))
        if action == "drop":
            del parts[k]
        elif action == "repeat":
            parts.insert(k, list(parts[k]))
        elif action == "payload":
            parts[k][1] = parts[k][1][:draw(st.integers(0, 8))]
        else:
            words = line.split(" ", 2 if line.startswith(("config ", "tensor ")) else 1)
            words[-1] = json.dumps(draw(BAD))
            parts[k][0] = " ".join(words).encode() + b"\n"
        if not parts:
            break
    return b"".join(line + payload for line, payload in parts)


def run(argv: list[str]) -> int:
    """``main(argv)``, which must return 0-3 and raise nothing; on failure it
    writes one line. A warning counts as a line: outside pytest it goes to
    stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    if code:
        assert len(lines) == 1, (argv, lines)
    return code


@pytest.fixture(scope="module")
def trained(tmp_path_factory) -> dict:
    """A tiny config file, valid data and the checkpoint trained on them."""
    root = tmp_path_factory.mktemp("cli_inputs")
    paths = {"config": root / "tiny.json", "data": root / "bags.jsonl", "root": root}
    paths["config"].write_text(json.dumps(TINY))
    paths["data"].write_text("".join(json.dumps(rec) + "\n" for rec in RECORDS))
    assert main(["train", "--data", str(paths["data"]), "--config", str(paths["config"]),
                 "--out", str(root / "model")]) == 0
    paths["checkpoint"] = root / "model" / "model.ckpt"
    return paths


def write_records(path: Path, records: list) -> str:
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
    return str(path)


COMMANDS = ["train", "eval pr", "eval pn", "eval f1", "attn-export"]


def argv_for(command: str, trained: dict, data: str, checkpoint: str) -> list[str]:
    out = str(trained["root"] / "out")
    if command == "train":
        return ["train", "--data", data, "--config", str(trained["config"]), "--out", out]
    if command == "attn-export":
        return ["attn-export", "--checkpoint", checkpoint, "--data", data,
                "--bag-id", "b0", "--out", out]
    return ["eval", "--checkpoint", checkpoint, "--data", data,
            "--metric", command.split()[1], "--out", out]


SETTINGS = settings(max_examples=40, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@SETTINGS
@given(records=mutated_records(), command=st.sampled_from(COMMANDS))
def test_mutated_data_records(trained, records, command):
    data = write_records(trained["root"] / "mutated.jsonl", records)
    run(argv_for(command, trained, data, str(trained["checkpoint"])))


@SETTINGS
@given(data=st.data(), command=st.sampled_from(COMMANDS[1:]))
def test_mutated_checkpoint_header(trained, data, command):
    blob = data.draw(mutated_checkpoint(trained["checkpoint"].read_bytes()))
    checkpoint = trained["root"] / "mutated.ckpt"
    checkpoint.write_bytes(blob)
    run(argv_for(command, trained, str(trained["data"]), str(checkpoint)))


# epochs is left out: any count is valid, and a huge one trains that long
@SETTINGS
@given(key=st.sampled_from(sorted(set(TINY) - {"epochs"})
                           + ["learning_rate", "precision", "dropout", "no_such_key"]),
       value=BAD)
@example(key="learning_rate", value=10**30)   # diverges; numpy warned on the way
def test_mutated_config_file(trained, key, value):
    config = trained["root"] / "mutated.json"
    config.write_text(json.dumps({**TINY, key: value}))
    run(["train", "--data", str(trained["data"]), "--config", str(config),
         "--out", str(trained["root"] / "out")])


# a valid --embeddings file for TINY's word_dim of 4: 'count dim', then
# 'token v1 ... v4', one line per token
EMBEDDINGS = ["3 4", "h 0.1 -0.2 0.3 0.4", "w 1 2 3 4", "t -1e-3 0 0.5 2.5e-1"]

# a header or vector field, each wrong in its own way: non-numeric,
# non-finite once read, finite but past float32, empty, or a wrong dim
BAD_FIELD = st.one_of(
    st.sampled_from(["x", "", "nan", "-inf", "infinity", "1e999", "3.5e38", "0x10",
                     "1,5", "--1", "4 4", "\t", "5", "-4", "0", "99999999999999999999"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr), st.text(max_size=3))


@st.composite
def mutated_embeddings(draw) -> str:
    lines = list(EMBEDDINGS)
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(0, len(lines) - 1)) if lines else 0
        action = draw(st.sampled_from(["field", "field", "drop", "repeat", "trailing space",
                                       "blank"]))
        if action == "drop" and lines:
            del lines[k]
        elif action == "repeat" and lines:
            lines.insert(k, lines[k])
        elif action == "trailing space" and lines:
            lines[k] += " "
        elif action == "blank":
            lines.insert(k, "")
        elif lines:
            fields = lines[k].split(" ")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(BAD_FIELD)
            lines[k] = " ".join(fields)
    return "".join(line + "\n" for line in lines)


def train_with_embeddings(trained: dict, blob: bytes) -> list[str]:
    path = trained["root"] / "vectors.txt"
    path.write_bytes(blob)
    return ["train", "--data", str(trained["data"]), "--config", str(trained["config"]),
            "--embeddings", str(path), "--out", str(trained["root"] / "out")]


@SETTINGS
@given(text=mutated_embeddings())
def test_mutated_embedding_file(trained, text):
    run(train_with_embeddings(trained, text.encode()))


@pytest.mark.parametrize("lines, code", [
    (EMBEDDINGS, 0),
    ([line + " " for line in EMBEDDINGS], 0),            # word2vec's trailing space
    (["3"] + EMBEDDINGS[1:], 3),                         # bad header
    (["three 4"] + EMBEDDINGS[1:], 3),
    (["3 5"] + EMBEDDINGS[1:], 3),                       # wrong dim in the header
    (EMBEDDINGS[:2] + ["w 1 2 3"] + EMBEDDINGS[3:], 3),   # wrong dim on a line
    (EMBEDDINGS[:3] + ["h 1 2 3 4"], 3),                 # repeated token
    (EMBEDDINGS[:2] + ["w 1 2 x 4"] + EMBEDDINGS[3:], 3),  # non-numeric
    (EMBEDDINGS[:2] + ["w 1 2 1_0 4"] + EMBEDDINGS[3:], 3),  # Python's float reads 10
    (EMBEDDINGS[:2] + ["w 1 2 nan 4"] + EMBEDDINGS[3:], 3),  # non-finite
    (EMBEDDINGS[:2] + ["w 1 2 1e999 4"] + EMBEDDINGS[3:], 3),
    (EMBEDDINGS[:2] + ["w 1 2 3.5e38 4"] + EMBEDDINGS[3:], 3),  # finite, past float32
    (["4 4"] + EMBEDDINGS[1:], 3),                       # count mismatch
    (EMBEDDINGS[:3], 3),
])
def test_embedding_file(trained, lines, code, capsys):
    argv = train_with_embeddings(trained, "".join(line + "\n" for line in lines).encode())
    assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("data error: ") and err.count("\n") == 1
    else:
        assert err == ""


# bytes that no UTF-8 decoder accepts: a lone continuation byte, a truncated
# two-byte sequence, an encoded surrogate, an overlong slash and a byte never used
NOT_UTF8 = st.sampled_from([b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf", b"\xff"])


def with_bytes(draw, blob: bytes) -> bytes:
    at = draw(st.integers(0, len(blob)))
    return blob[:at] + draw(NOT_UTF8) + blob[at:]


@SETTINGS
@given(data=st.data(), target=st.sampled_from(COMMANDS + ["config", "embeddings"]))
def test_bytes_that_are_not_utf8(trained, data, target):
    root = trained["root"]
    if target == "config":
        config = root / "not_utf8.json"
        config.write_bytes(with_bytes(data.draw, trained["config"].read_bytes()))
        argv = ["train", "--data", str(trained["data"]), "--config", str(config),
                "--out", str(root / "out")]
    elif target == "embeddings":
        blob = "".join(line + "\n" for line in EMBEDDINGS).encode()
        argv = train_with_embeddings(trained, with_bytes(data.draw, blob))
    else:
        bags = root / "not_utf8.jsonl"
        bags.write_bytes(with_bytes(data.draw, trained["data"].read_bytes()))
        argv = argv_for(target, trained, str(bags), str(trained["checkpoint"]))
    assert run(argv) != 0
