"""The three benchmark workloads: inputs, set-up, one closed-loop step, gate.

Every workload is a closed loop with one caller: the next step starts when
the previous one has returned. Inputs are made from the workload seed; the
package only ever sees the generated bags. The correctness gate of each
workload runs on fixed inputs instead, so its values can be compared with
references stored in ``assets/reference.json``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from relattn import autodiff, data, evaluation, training
from relattn.config import ModelConfig
from relattn.model import Model

ASSETS = Path(__file__).resolve().parent / "assets"
CHECKPOINT = ASSETS / "synth_model.ckpt"

# Acceptance criterion 6: synth profile, seed 3, trained on SynthSpec(5, 200,
# 400, 5, 0.5, seed=11); its held-out set uses bags_per_relation=80, seed=23.
SYNTH_SHAPE = dict(num_relations=5, vocab_size=200, max_bag_size=5, noise_ratio=0.5)
CRITERION6_MODEL_SEED = 3
CRITERION6_TRAIN_SEED = 11
CRITERION6_TEST_SEED = 23
SYNTH_TRAIN_BAGS_PER_RELATION = 400
SYNTH_TEST_BAGS_PER_RELATION = 80
EVAL_SEED_OFFSET = 100_000       # keeps held-out draws apart from training draws
EVAL_GATE_BAGS = tuple(range(0, 400, 25))   # fixed sample of the seed-23 set
# Every eval chunk holds the same bag sizes (30 instances in 10 bags), so every
# step does the same work whatever the seed; steps are short next to the
# seconds-long slow spells of a shared host. The chunks' bags are drawn from a
# seeded pool of twice as many bags per relation as criterion 6's held-out set.
EVAL_CHUNK_BAG_SIZES = (1, 2, 3, 4, 5) * 2
EVAL_CHUNKS = 40
EVAL_POOL_BAGS_PER_RELATION = 2 * SYNTH_TEST_BAGS_PER_RELATION
PN_MODE = "all"
PN_N = (100, 200, 300)           # `relattn eval --metric pn` defaults

# NYT-shaped bags at the nyt profile. Every batch holds the same bag-size
# multiset (mostly single-instance bags, a heavy tail up to 9), so each step
# does the same amount of encoder work whatever the seed.
NYT_RELATIONS = ["NA"] + [f"rel{k:02d}" for k in range(1, 53)]   # as in NYT-10
NYT_VOCAB = 4000
NYT_BATCH_BAG_SIZES = (1,) * 10 + (2, 2, 2, 3, 5, 9)
NYT_BATCH_BAGS = len(NYT_BATCH_BAG_SIZES)
NYT_MEDIAN_LENGTH = 32           # lognormal sentence lengths; ~2% exceed time_steps=70
NYT_LENGTH_SIGMA = 0.4
NYT_LENGTH_RANGE = (8, 120)
NYT_NA_SHARE = 0.5
NYT_SIGNAL_SHARE = 0.5           # chance a sentence of a non-NA bag carries its signature
NYT_BATCHES = 16
NYT_GATE_SEED = 0


class StepFailed(RuntimeError):
    """A train step produced a non-finite loss."""


def prob_row_failures(records, tolerance: float = 1e-4) -> tuple[int, int]:
    """(bags checked, bags whose probability row is non-finite or off 1).

    Only valid for datasets without a none relation, where ``score_test_set``
    emits every class of every bag.
    """
    sums: dict[str, float] = defaultdict(float)
    for rec in records:
        sums[rec.bag_id] += rec.confidence
    bad = sum(1 for s in sums.values() if not math.isfinite(s) or abs(s - 1.0) > tolerance)
    return len(sums), bad


# ---------------------------------------------------------------------------
# training workloads


class TrainSession:
    """A model plus an endless, restartable sequence of batches."""

    def __init__(self, model: Model, config: ModelConfig, first_epoch, later_epoch) -> None:
        self.model = model
        self.config = config
        self._first_epoch = first_epoch
        self._later_epoch = later_epoch   # epoch -> batches
        self.reset()

    def reset(self) -> None:
        """Restart at the first batch of epoch 0 (model state is kept)."""
        self._epoch, self._pos, self._batches = 0, 0, self._first_epoch

    def next_batch(self) -> list[data.Bag]:
        if self._pos == len(self._batches):
            self._epoch += 1
            self._pos, self._batches = 0, self._later_epoch(self._epoch)
        self._pos += 1
        return self._batches[self._pos - 1]

    def step(self, bags: list[data.Bag]) -> float:
        """Forward, backward and Adam on one batch, as ``training.train`` does."""
        model = self.model
        model.zero_grad()
        tape = autodiff.Tape()
        loss, _ = training.total_loss(tape, bags, model)
        value = loss.value.item()
        if not math.isfinite(value):
            raise StepFailed(f"non-finite loss {value}")
        autodiff.backward(tape, loss)
        training.adam_step(model.parameters(), self.config)
        return value


def first_loss(model: Model, bags: list[data.Bag]) -> float:
    loss, _ = training.total_loss(None, bags, model)
    return loss.value.item()


def synth_config(seed: int) -> ModelConfig:
    return ModelConfig.from_profile("synth", seed=seed)


def synth_train_spec(seed: int, bags_per_relation: int) -> data.SynthSpec:
    return data.SynthSpec(bags_per_relation=bags_per_relation, seed=seed, **SYNTH_SHAPE)


def setup_train_synth(seed: int, smoke: bool) -> TrainSession:
    config = synth_config(seed)
    per_relation = 20 if smoke else SYNTH_TRAIN_BAGS_PER_RELATION
    dataset = data.generate_synthetic(synth_train_spec(seed, per_relation), config)
    model = Model(config, len(dataset.vocab), len(dataset.relations),
                  rng=np.random.default_rng(config.seed))

    def epoch_batches(epoch: int):
        return data.make_batches(dataset, config.batch_size,
                                 seed=config.seed * 1_000_003 + epoch)
    return TrainSession(model, config, epoch_batches(0), epoch_batches)


def gate_train_synth() -> list[float]:
    """Criterion 6's first-step loss, before any update."""
    config = synth_config(CRITERION6_MODEL_SEED)
    dataset = data.generate_synthetic(
        synth_train_spec(CRITERION6_TRAIN_SEED, SYNTH_TRAIN_BAGS_PER_RELATION), config)
    model = Model(config, len(dataset.vocab), len(dataset.relations),
                  rng=np.random.default_rng(config.seed))
    batch = data.make_batches(dataset, config.batch_size, seed=config.seed * 1_000_003)[0]
    return [first_loss(model, batch)]


def nyt_config(seed: int) -> ModelConfig:
    return ModelConfig.from_profile("nyt", batch_size=NYT_BATCH_BAGS, seed=seed)


def nyt_records(seed: int, batches: int) -> list[dict]:
    """NYT-shaped bag records, ``NYT_BATCH_BAGS`` consecutive bags per batch.

    Relation k > 0 places ``relation_patterns`` signature k-1 between head
    and tail; NA bags and noise sentences are filler with the two mentions
    at random positions. Sentences past ``time_steps`` get truncated by the
    package, which also clips mentions that fall beyond the cut.
    """
    rng = np.random.default_rng(seed)
    patterns = data.relation_patterns(len(NYT_RELATIONS) - 1, NYT_VOCAB)
    first_filler = (len(NYT_RELATIONS) - 1) * data.PATTERN_POOL_SIZE
    filler = [f"w{i:03d}" for i in range(first_filler, NYT_VOCAB)]
    lo, hi = NYT_LENGTH_RANGE

    def words(n: int) -> list[str]:
        return [filler[i] for i in rng.integers(0, len(filler), size=n)]

    records = []
    for _ in range(batches):
        for size in rng.permutation(NYT_BATCH_BAG_SIZES):
            rel = 0 if rng.random() < NYT_NA_SHARE else int(rng.integers(1, len(NYT_RELATIONS)))
            head, tail = words(2)
            signal = rng.random(size) < NYT_SIGNAL_SHARE if rel else np.zeros(size, bool)
            if rel and not signal.any():
                signal[rng.integers(0, size)] = True
            sentences = []
            for carries in signal:
                length = int(np.clip(round(rng.lognormal(math.log(NYT_MEDIAN_LENGTH),
                                                         NYT_LENGTH_SIGMA)), lo, hi))
                tokens = words(length)
                if carries:
                    h = int(rng.integers(0, length - 4))
                    t = h + 4
                    tokens[h + 1:t] = patterns[rel - 1]
                else:
                    h, t = (int(x) for x in rng.choice(length, size=2, replace=False))
                tokens[h], tokens[t] = head, tail
                sentences.append({"tokens": tokens, "head_index": h, "tail_index": t})
            records.append({"bag_id": f"nyt{len(records):05d}", "head": head, "tail": tail,
                            "relation": NYT_RELATIONS[rel], "sentences": sentences})
    return records


def nyt_session(records: list[dict], seed: int) -> TrainSession:
    config = nyt_config(seed)
    vocab = data.Vocab.build(f"w{i:03d}" for i in range(NYT_VOCAB))
    dataset = data.dataset_from_records(records, config, vocab=vocab, relations=NYT_RELATIONS)
    model = Model(config, len(vocab), len(NYT_RELATIONS), rng=np.random.default_rng(seed))
    bags = dataset.bags
    batches = [bags[i:i + NYT_BATCH_BAGS] for i in range(0, len(bags), NYT_BATCH_BAGS)]
    return TrainSession(model, config, batches, lambda epoch: batches)


def nyt_inputs(seed: int, smoke: bool) -> list[dict]:
    return nyt_records(seed, 2 if smoke else NYT_BATCHES)


def gate_train_nyt() -> list[float]:
    session = nyt_session(nyt_records(NYT_GATE_SEED, 1), NYT_GATE_SEED)
    return [first_loss(session.model, session.next_batch())]


# ---------------------------------------------------------------------------
# evaluation workload


@dataclass
class PassResult:
    bags: int
    checked: int
    failed: int
    records: list


class EvalSession:
    """A loaded checkpoint and a held-out set cut into fixed chunks of bags.

    One step scores one chunk as `relattn eval` scores a file: PR records,
    P@N records and hard predictions, each followed by its metric.
    """

    def __init__(self, model: Model, dataset: data.Dataset, chunk_bags: int) -> None:
        self.model = model
        self.dataset = dataset
        bags = dataset.bags
        self.chunks = [data.Dataset(bags[i:i + chunk_bags], dataset.vocab, dataset.relations,
                                    dataset.none_relation_id)
                       for i in range(0, len(bags), chunk_bags)]
        self.reset()

    def reset(self) -> None:
        self._pos = 0

    def next_chunk(self) -> data.Dataset:
        chunk = self.chunks[self._pos % len(self.chunks)]
        self._pos += 1
        return chunk

    def run_pass(self, ds: data.Dataset) -> PassResult:
        """`--metric pr`, `--metric pn --pn-mode all` and `--metric f1` on one chunk."""
        model = self.model
        records = evaluation.score_test_set(ds, model)
        gold = evaluation.gold_facts(ds)
        evaluation.pr_curve(records, gold)

        pn_records = evaluation.score_test_set(ds, model, pn=evaluation.PnSetting(PN_MODE))
        for n in PN_N:
            evaluation.p_at_n(pn_records, gold, min(n, len(pn_records)))

        evaluation.macro_f1(evaluation.hard_predictions(ds, model), ds)

        checked, failed = prob_row_failures(records)
        pn_checked, pn_failed = prob_row_failures(pn_records)
        return PassResult(len(ds.bags), checked + pn_checked, failed + pn_failed, records)

    def pr_auc(self, records) -> float:
        """PR-AUC of the whole held-out set from the records of every chunk."""
        return evaluation.pr_curve(records, evaluation.gold_facts(self.dataset))[1]


def load_eval_model():
    ckpt = training.load_checkpoint(CHECKPOINT)
    model, vocab = training.model_from_checkpoint(ckpt)
    return ckpt, model, vocab


def held_out_records(spec_seed: int, bags_per_relation: int) -> list[dict]:
    spec = data.SynthSpec(bags_per_relation=bags_per_relation, seed=spec_seed, **SYNTH_SHAPE)
    return data.generate_synthetic_records(spec)


def eval_dataset(records: list[dict], ckpt, vocab) -> data.Dataset:
    return data.dataset_from_records(records, ckpt.config, vocab=vocab,
                                     relations=ckpt.relations, source="<held-out>")


def fixed_size_chunks(records: list[dict], chunks: int, seed: int) -> list[dict]:
    """``chunks`` runs of records with the bag sizes of ``EVAL_CHUNK_BAG_SIZES``.

    The pool is shuffled first, so every relation is drawn from.
    """
    by_size: dict[int, list[dict]] = defaultdict(list)
    for i in np.random.default_rng(seed).permutation(len(records)):
        by_size[len(records[i]["sentences"])].append(records[i])
    return [by_size[size].pop() for _ in range(chunks) for size in EVAL_CHUNK_BAG_SIZES]


def setup_eval_synth(seed: int, smoke: bool) -> EvalSession:
    ckpt, model, vocab = load_eval_model()
    pool = held_out_records(EVAL_SEED_OFFSET + seed,
                            20 if smoke else EVAL_POOL_BAGS_PER_RELATION)
    records = fixed_size_chunks(pool, 2 if smoke else EVAL_CHUNKS, seed)
    return EvalSession(model, eval_dataset(records, ckpt, vocab), len(EVAL_CHUNK_BAG_SIZES))


def gate_eval_synth() -> list[float]:
    """Class probabilities of a fixed sample of criterion 6's held-out bags."""
    ckpt, model, vocab = load_eval_model()
    ds = eval_dataset(held_out_records(CRITERION6_TEST_SEED, SYNTH_TEST_BAGS_PER_RELATION),
                      ckpt, vocab)
    return [float(p) for i in EVAL_GATE_BAGS for p in model.predict_bag(ds.bags[i])]


GATES = {
    "train_synth": gate_train_synth,
    "train_nyt": gate_train_nyt,
    "eval_synth": gate_eval_synth,
}
