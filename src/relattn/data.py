"""Dataset ingestion, encoding, batching, and the synthetic-data harness.

Datasets arrive as JSONL, one bag per line:

    {"bag_id": "...", "head": "...", "tail": "...", "relation": "...",
     "sentences": [{"tokens": [...], "head_index": 0, "tail_index": 3}, ...]}

A bag groups every sentence that mentions one (head, tail) pair under one
relation label; sentence-level labels are unknown and may be wrong, which is
exactly what the bag-level model is built to tolerate.

Each sentence becomes an :class:`Instance` of its first ``time_steps`` token
ids, unpadded: the encoder packs real tokens only.
"""

from __future__ import annotations

import json
import logging
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .config import ModelConfig

log = logging.getLogger(__name__)

BLANK_ID = 0
UNK_ID = 1
BLANK_TOKEN = "<BLANK>"
UNK_TOKEN = "<UNK>"


class DataError(ValueError):
    """Malformed dataset file or record."""


@dataclass
class Vocab:
    """Token strings by id; ``token_to_id`` is built from ``id_to_token``,
    and a token listed twice is a ValueError."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            repeated = next(t for i, t in enumerate(self.id_to_token)
                            if self.token_to_id[t] != i)
            raise ValueError(f"vocabulary lists {repeated!r} twice")

    @classmethod
    def build(cls, tokens: Iterable[str]) -> "Vocab":
        """Deterministic vocabulary: reserved ids first, then sorted tokens."""
        uniq = sorted(set(tokens) - {BLANK_TOKEN, UNK_TOKEN})
        return cls([BLANK_TOKEN, UNK_TOKEN] + uniq)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self.token_to_id.get(t, UNK_ID) for t in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def __len__(self) -> int:
        return len(self.id_to_token)


@dataclass(eq=False)
class Instance:
    """One sentence: the ids of the tokens kept after truncation to
    ``time_steps``, and the entity positions clipped into that range; it is
    ``degenerate`` when the two coincide. Ids of another integer type, and an
    empty sequence of any type, are stored as int64; ids of a non-integer
    type raise ``TypeError``."""

    token_ids: np.ndarray        # int64, at most time_steps ids, no padding
    head_pos: int
    tail_pos: int

    def __post_init__(self) -> None:
        if getattr(self.token_ids, "dtype", None) != np.int64:   # the loader's ids skip this
            ids = np.asarray(self.token_ids)
            if ids.size and ids.dtype.kind not in "iu":
                raise TypeError(f"token_ids must hold integers, got dtype {ids.dtype}")
            self.token_ids = ids.astype(np.int64)

    @property
    def true_length(self) -> int:
        return len(self.token_ids)

    @property
    def degenerate(self) -> bool:
        return self.head_pos == self.tail_pos


@dataclass(eq=False)
class Bag:
    bag_id: str
    head: str
    tail: str
    relation_id: int
    instances: list[Instance]


@dataclass(eq=False)
class Dataset:
    bags: list[Bag]
    vocab: Vocab
    relations: list[str]                 # index = relation id
    none_relation_id: int | None = None  # id of NA/Other if present


def encode_instance(tokens: Sequence[str], head_index: int, tail_index: int,
                    vocab: Vocab, time_steps: int) -> Instance:
    ids = np.array(vocab.encode(tokens[:time_steps]), dtype=np.int64)
    last = time_steps - 1
    head = int(min(max(head_index, 0), last))
    tail = int(min(max(tail_index, 0), last))
    return Instance(ids, head, tail)


# a lone surrogate, as a JSON escape such as \ud800 loads: UTF-8 cannot encode it
SURROGATE = re.compile("[\ud800-\udfff]")


def _check_record(rec: dict, where: str) -> None:
    if not isinstance(rec, dict):
        raise DataError(f"{where}: a bag must be a JSON object")
    for key in ("bag_id", "head", "tail", "relation", "sentences"):
        if key not in rec:
            raise DataError(f"{where}: missing key {key!r}")
    for key in ("bag_id", "head", "tail", "relation"):
        if not isinstance(rec[key], str):
            raise DataError(f"{where}: {key!r} must be a string")
        if SURROGATE.search(rec[key]):
            raise DataError(f"{where}: {key!r} holds a lone surrogate")
    if not isinstance(rec["sentences"], list) or not rec["sentences"]:
        raise DataError(f"{where}: 'sentences' must be a non-empty list")
    for k, sent in enumerate(rec["sentences"]):
        place = f"{where}, sentence {k}"
        if not isinstance(sent, dict):
            raise DataError(f"{place}: a sentence must be a JSON object")
        tokens = sent.get("tokens")
        if not isinstance(tokens, list) or not tokens:
            raise DataError(f"{place}: 'tokens' must be a non-empty list")
        if not all(isinstance(token, str) for token in tokens):
            raise DataError(f"{place}: every token must be a string")
        if any(map(SURROGATE.search, tokens)):
            raise DataError(f"{place}: a token holds a lone surrogate")
        for idx_key in ("head_index", "tail_index"):
            idx = sent.get(idx_key)
            if not isinstance(idx, int) or isinstance(idx, bool):
                raise DataError(f"{place}: missing or non-integer {idx_key!r}")
            if not 0 <= idx < len(tokens):
                raise DataError(f"{place}: {idx_key}={idx} outside 0..{len(tokens) - 1}")


def dataset_from_records(records: Sequence[dict], config: ModelConfig,
                         vocab: Vocab | None = None,
                         relations: Sequence[str] | None = None,
                         source: str = "<records>") -> Dataset:
    if vocab is None:
        vocab = Vocab.build(tok for rec in records for sent in rec["sentences"]
                            for tok in sent["tokens"])

    seen_relations = sorted({rec["relation"] for rec in records})
    if relations is None:
        relation_list = seen_relations
    else:
        relation_list = list(relations)
        extra = sorted(set(seen_relations) - set(relation_list))
        if extra:
            raise DataError(f"{source}: relations not in the given vocabulary: {extra}")
    rel_to_id = {r: i for i, r in enumerate(relation_list)}

    bags: list[Bag] = []
    bag_ids: set[str] = set()
    mention_mismatches = 0
    degenerate = 0
    for rec in records:
        if rec["bag_id"] in bag_ids:   # metrics and attn-export key bags by id
            raise DataError(f"{source}: bag id {rec['bag_id']!r} names more than one bag")
        bag_ids.add(rec["bag_id"])
        instances = []
        for sent in rec["sentences"]:
            tokens = sent["tokens"]
            if tokens[sent["head_index"]] != rec["head"] or tokens[sent["tail_index"]] != rec["tail"]:
                mention_mismatches += 1  # distant supervision is noisy; keep it
            inst = encode_instance(tokens, sent["head_index"], sent["tail_index"],
                                   vocab, config.time_steps)
            degenerate += inst.degenerate
            instances.append(inst)
        bags.append(Bag(rec["bag_id"], rec["head"], rec["tail"],
                        rel_to_id[rec["relation"]], instances))

    if mention_mismatches:
        log.warning("%s: %d sentences whose indexed tokens do not match the entity "
                    "surface strings (kept)", source, mention_mismatches)
    if degenerate:
        log.warning("%s: %d sentences where head and tail share one index (kept, flagged)",
                    source, degenerate)

    none_id = next((rel_to_id[name] for name in ("NA", "Other") if name in rel_to_id), None)
    return Dataset(bags, vocab, relation_list, none_id)


@contextmanager
def _open_text(path: Path) -> Iterator[TextIO]:
    """``path`` opened as UTF-8 text; bytes that are not UTF-8 raise a
    DataError naming the file."""
    try:
        with path.open("r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def load_dataset(path: str | Path, config: ModelConfig,
                 vocab: Vocab | None = None,
                 relations: Sequence[str] | None = None) -> Dataset:
    """Read a JSONL bag file, building the vocabulary unless one is given."""
    path = Path(path)
    records = []
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: line {lineno}: invalid JSON ({exc})") from exc
            _check_record(rec, f"{path}: line {lineno}")
            records.append(rec)
    if not records:
        raise DataError(f"{path}: no bags found")
    return dataset_from_records(records, config, vocab, relations, source=str(path))


def save_records_jsonl(records: Sequence[dict], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def position_buckets(distances, max_distance: int) -> np.ndarray:
    """Bucket ids of token-to-entity distances (token index minus entity
    index): each is clipped to [-max_distance, +max_distance] and shifted
    into [0, 2*max_distance], by ``np.maximum`` and ``np.minimum``: on a
    synth batch's ``[2 x 669]`` distances ``np.clip`` took 10.5 µs, they 6.1."""
    return np.minimum(np.maximum(distances, -max_distance), max_distance) + max_distance


def make_batches(dataset: Dataset, batch_size: int, seed: int) -> list[list[Bag]]:
    """Shuffle bags with the given seed and group them into batches."""
    if not dataset.bags:
        raise DataError("cannot batch an empty dataset")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.random.default_rng(seed).permutation(len(dataset.bags))
    shuffled = [dataset.bags[i] for i in order]
    return [shuffled[i:i + batch_size] for i in range(0, len(shuffled), batch_size)]


# ---------------------------------------------------------------------------
# synthetic distant-supervision generator (verification harness)

PATTERN_POOL_SIZE = 5  # dedicated tokens per relation; signatures are drawn from these


@dataclass(frozen=True)
class SynthSpec:
    num_relations: int = 5
    vocab_size: int = 200
    bags_per_relation: int = 400
    max_bag_size: int = 5
    noise_ratio: float = 0.5   # chance an instance is a pattern-free noise sentence
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_relations < 2:
            raise ValueError("need at least 2 relations")
        if self.vocab_size < self.num_relations * PATTERN_POOL_SIZE + 10:
            raise ValueError("vocab_size too small for the pattern pools plus filler")
        if not 0.0 <= self.noise_ratio < 1.0:
            raise ValueError("noise_ratio must lie in [0, 1)")
        if self.max_bag_size < 1 or self.bags_per_relation < 1:
            raise ValueError("bag counts must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _token_universe(vocab_size: int) -> list[str]:
    return [f"w{i:03d}" for i in range(vocab_size)]


def relation_patterns(num_relations: int, vocab_size: int) -> list[tuple[str, str, str]]:
    """Signature trigram per relation, a pure function of the two sizes.

    Depending only on (num_relations, vocab_size) lets independently seeded
    train and test sets share the same relation signatures.
    """
    tokens = _token_universe(vocab_size)
    rng = np.random.default_rng([num_relations, vocab_size, 2718281828])
    patterns = []
    for k in range(num_relations):
        pool = tokens[k * PATTERN_POOL_SIZE:(k + 1) * PATTERN_POOL_SIZE]
        picked = rng.choice(PATTERN_POOL_SIZE, size=3, replace=False)
        patterns.append(tuple(pool[i] for i in picked))
    return patterns


def contains_pattern(tokens: Sequence[str], pattern: Sequence[str]) -> bool:
    n = len(pattern)
    return any(tuple(tokens[i:i + n]) == tuple(pattern) for i in range(len(tokens) - n + 1))


def generate_synthetic_records(spec: SynthSpec) -> list[dict]:
    """Bags whose valid sentences carry a relation signature between the entities.

    Noise sentences are built purely from filler tokens, so they can never
    contain any relation's signature; every bag keeps at least one valid
    sentence. Deterministic for a fixed spec and seed.
    """
    tokens = _token_universe(spec.vocab_size)
    patterns = relation_patterns(spec.num_relations, spec.vocab_size)
    filler = tokens[spec.num_relations * PATTERN_POOL_SIZE:]
    rng = np.random.default_rng(spec.seed)

    def filler_draw(n: int) -> list[str]:
        return [filler[i] for i in rng.integers(0, len(filler), size=n)]

    records = []
    counter = 0
    for k in range(spec.num_relations):
        for _ in range(spec.bags_per_relation):
            head, tail = filler_draw(2)
            size = int(rng.integers(1, spec.max_bag_size + 1))
            is_noise = rng.random(size) < spec.noise_ratio
            if is_noise.all():
                is_noise[rng.integers(0, size)] = False
            sentences = []
            for noisy in is_noise:
                if noisy:
                    length = int(rng.integers(5, 10))
                    sent = filler_draw(length)
                    hi, ti = rng.choice(length, size=2, replace=False)
                    sent[hi], sent[ti] = head, tail
                else:
                    prefix = filler_draw(int(rng.integers(0, 3)))
                    suffix = filler_draw(int(rng.integers(0, 3)))
                    sent = prefix + [head, *patterns[k], tail] + suffix
                    hi, ti = len(prefix), len(prefix) + 4
                sentences.append({"tokens": sent, "head_index": int(hi), "tail_index": int(ti)})
            records.append({
                "bag_id": f"synth{counter:05d}",
                "head": head, "tail": tail,
                "relation": f"rel{k}",
                "sentences": sentences,
            })
            counter += 1
    return records


def generate_synthetic(spec: SynthSpec, config: ModelConfig | None = None) -> Dataset:
    """Generate and encode a synthetic dataset.

    The vocabulary always covers the full synthetic token universe, so
    datasets generated with different seeds (train/test splits) agree on
    token ids.
    """
    if config is None:
        config = ModelConfig.from_profile("synth")
    records = generate_synthetic_records(spec)
    vocab = Vocab.build(_token_universe(spec.vocab_size))
    relations = [f"rel{k}" for k in range(spec.num_relations)]
    return dataset_from_records(records, config, vocab=vocab, relations=relations,
                                source=f"<synthetic seed={spec.seed}>")


def read_embedding_file(path: str | Path, word_dim: int) -> dict[str, np.ndarray]:
    """Parse 'count dim' header then 'token v1 ... vdim' lines of finite
    values; ``dim`` must equal ``word_dim``, and no token may appear twice."""
    path = Path(path)
    with _open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataError(f"{path}: first line must be 'count dim'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise DataError(f"{path}: first line must be 'count dim'") from exc
        if dim != word_dim:
            raise DataError(f"{path}: vectors have dim {dim}, but word_dim is {word_dim}")
        table: dict[str, np.ndarray] = {}
        first_line: dict[str, int] = {}
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip().split(" ")   # word2vec ends each line in a space
            if len(parts) != dim + 1:
                raise DataError(f"{path}: line {lineno}: expected token plus {dim} values")
            if parts[0] in first_line:
                raise DataError(f"{path}: line {lineno}: token {parts[0]!r} already has "
                                f"a vector on line {first_line[parts[0]]}")
            first_line[parts[0]] = lineno
            if any("_" in x for x in parts[1:]):   # Python's float reads 1_0 as 10
                raise DataError(f"{path}: line {lineno}: non-numeric value (holds '_')")
            try:
                table[parts[0]] = np.array([float(x) for x in parts[1:]])
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: non-numeric value ({exc})") from exc
            if not np.isfinite(table[parts[0]]).all():
                raise DataError(f"{path}: line {lineno}: non-finite value")
    if len(table) != count:
        raise DataError(f"{path}: header claims {count} vectors, found {len(table)}")
    return table
