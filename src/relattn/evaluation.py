"""Held-out evaluation: PR curves, precision-at-N, Macro F1, attention export.

Predicted facts are ranked by confidence with deterministic tie-breaking
(bag id, then relation id) so results are reproducible and directly
comparable against brute-force reference implementations.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import BLANK_TOKEN, Bag, Dataset, Instance, Vocab
from .model import Model

PN_MODES = ("one", "two", "all")


class EvalError(ValueError):
    """Evaluation inputs are inconsistent (vocabulary, sizes, ...)."""


@dataclass(frozen=True)
class PredictionRecord:
    """One (bag, relation) confidence emitted by the model."""

    bag_id: str
    head: str
    tail: str
    relation_id: int
    confidence: float


@dataclass(frozen=True)
class PnSetting:
    """Instance subsampling for precision-at-N; applies to bags with J > 1."""

    mode: str        # one | two | all
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in PN_MODES:
            raise ValueError(f"mode must be one of {PN_MODES}, got {self.mode!r}")


def gold_facts(dataset: Dataset) -> set[tuple[str, str, int]]:
    """(head, tail, relation) triples of the non-none bags."""
    return {(bag.head, bag.tail, bag.relation_id) for bag in dataset.bags
            if bag.relation_id != dataset.none_relation_id}


def _bag_probabilities(dataset: Dataset, model: Model,
                       instance_lists: Sequence[list[Instance]]) -> list[np.ndarray]:
    """Class probabilities of each bag, ``config.batch_size`` bags per forward pass."""
    if model.num_classes != len(dataset.relations):
        raise EvalError(f"model predicts {model.num_classes} classes but the dataset "
                        f"has {len(dataset.relations)} relations")
    step = model.config.batch_size
    chunks = (instance_lists[i:i + step] for i in range(0, len(instance_lists), step))
    return [row for chunk in chunks for row in model.forward(None, chunk).probabilities.value]


def score_test_set(dataset: Dataset, model: Model,
                   pn: PnSetting | None = None) -> list[PredictionRecord]:
    """One record per (bag, non-none relation) from the full forward pass.

    Under a PnSetting only bags with more than one instance are scored, on a
    without-replacement sample of their instances (deterministic per seed).
    """
    rng = np.random.default_rng(pn.seed) if pn is not None else None
    scored = []
    for bag in dataset.bags:
        instances = bag.instances
        if pn is not None:
            if len(instances) < 2:
                continue
            if pn.mode != "all":
                count = 1 if pn.mode == "one" else 2
                picked = rng.choice(len(instances), size=count, replace=False)
                instances = [instances[i] for i in picked]
        scored.append((bag, instances))
    probabilities = _bag_probabilities(dataset, model, [instances for _, instances in scored])
    records = []
    for (bag, _), probs in zip(scored, probabilities):
        for rel in range(len(dataset.relations)):
            if rel == dataset.none_relation_id:
                continue
            records.append(PredictionRecord(bag.bag_id, bag.head, bag.tail,
                                            rel, float(probs[rel])))
    return records


def ranked(records: Sequence[PredictionRecord]) -> list[PredictionRecord]:
    """Confidence-descending order; ties broken by (bag_id, relation_id)."""
    return sorted(records, key=lambda r: (-r.confidence, r.bag_id, r.relation_id))


def pr_curve(records: Sequence[PredictionRecord],
             gold: set[tuple[str, str, int]],
             ) -> tuple[list[tuple[float, float]], float]:
    """Precision/recall at every prefix of the ranking, plus trapezoid AUC.

    Recall is capped at 1 in the degenerate case where duplicated facts make
    the correct count exceed the gold count.
    """
    if not gold:
        raise EvalError("empty gold-fact set")
    points = []
    correct = 0
    for k, rec in enumerate(ranked(records), start=1):
        correct += (rec.head, rec.tail, rec.relation_id) in gold
        points.append((correct / k, min(1.0, correct / len(gold))))
    auc = 0.0
    prev_recall = 0.0
    prev_precision = points[0][0] if points else 0.0
    for precision, recall in points:
        auc += (recall - prev_recall) * (precision + prev_precision) / 2.0
        prev_recall, prev_precision = recall, precision
    return points, auc


def p_at_n(records: Sequence[PredictionRecord],
           gold: set[tuple[str, str, int]], n: int) -> float:
    """Fraction of the top-n ranked records that are gold facts."""
    if n > len(records):
        raise EvalError(f"asked for top {n} of only {len(records)} records")
    if n < 1:
        raise EvalError("n must be >= 1")
    top = ranked(records)[:n]
    return sum((r.head, r.tail, r.relation_id) in gold for r in top) / n


def hard_predictions(dataset: Dataset, model: Model) -> list[tuple[str, int]]:
    """Argmax class per bag, none included."""
    probabilities = _bag_probabilities(dataset, model, [bag.instances for bag in dataset.bags])
    return [(bag.bag_id, int(np.argmax(probs)))
            for bag, probs in zip(dataset.bags, probabilities)]


def accuracy(predictions: Sequence[tuple[str, int]], dataset: Dataset) -> float:
    gold = {bag.bag_id: bag.relation_id for bag in dataset.bags}
    return sum(gold[bag_id] == cls for bag_id, cls in predictions) / len(predictions)


def macro_f1(predictions: Sequence[tuple[str, int]], dataset: Dataset,
             ) -> tuple[list[tuple[int, float, float, float]], float]:
    """Per-class precision/recall/F1 over non-none classes, plus the macro mean.

    Classes absent from both the gold labels and the predictions are left out
    of the average.
    """
    gold = {bag.bag_id: bag.relation_id for bag in dataset.bags}
    pred = dict(predictions)
    if set(pred) != set(gold):
        raise EvalError("predictions do not cover exactly the dataset's bags")
    per_class = []
    f1s = []
    for cls in range(len(dataset.relations)):
        if cls == dataset.none_relation_id:
            continue
        tp = sum(1 for b, g in gold.items() if g == cls and pred[b] == cls)
        fp = sum(1 for b, g in gold.items() if g != cls and pred[b] == cls)
        fn = sum(1 for b, g in gold.items() if g == cls and pred[b] != cls)
        if tp + fp + fn == 0:
            continue
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append((cls, precision, recall, f1))
        f1s.append(f1)
    macro = sum(f1s) / len(f1s) if f1s else 0.0
    return per_class, macro


# ---------------------------------------------------------------------------
# CSV writers


def _write_csv(path: str | Path, header: list[str], rows) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_pr_csv(points: Sequence[tuple[float, float]], path: str | Path) -> None:
    _write_csv(path, ["rank", "precision", "recall"],
               ([k, repr(precision), repr(recall)]
                for k, (precision, recall) in enumerate(points, start=1)))


def write_pn_csv(rows: Sequence[tuple[str, int, float]], path: str | Path) -> None:
    _write_csv(path, ["setting", "n", "precision"],
               ([setting, n, repr(precision)] for setting, n, precision in rows))


def write_f1_csv(per_class: Sequence[tuple[int, float, float, float]], macro: float,
                 dataset: Dataset, path: str | Path) -> None:
    rows = [[dataset.relations[cls], repr(precision), repr(recall), repr(f1)]
            for cls, precision, recall, f1 in per_class]
    _write_csv(path, ["class", "precision", "recall", "f1"],
               rows + [["macro", "", "", repr(macro)]])


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def export_attention(model: Model, bag: Bag, vocab: Vocab,
                     out_dir: str | Path, prefix: str = "") -> list[Path]:
    """Write word-level and sentence-level attention CSVs for one bag.

    Word-level files carry the token strings as header, one row per
    attention row, and a final row summing the attention columns. The
    sentence-level file has one column per instance plus the averaged row.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    forward = model.forward_bag(None, bag)
    stem = f"{prefix}{_safe_name(bag.bag_id)}"
    width = model.config.time_steps
    written = []

    for j, (inst, attn) in enumerate(zip(bag.instances, forward.word_attentions.value)):
        # time_steps columns: past the batch's longest true length, 0 under BLANK
        tokens = vocab.decode(inst.token_ids) + [BLANK_TOKEN] * (width - inst.true_length)
        attn = np.pad(attn, ((0, 0), (0, width - attn.shape[1])))
        path = out_dir / f"{stem}_word_attn_{j}.csv"
        _write_csv(path, ["row"] + tokens, _labelled_rows(attn, "sum", attn.sum(axis=0)))
        written.append(path)

    path = out_dir / f"{stem}_sent_attn.csv"
    _write_csv(path, ["row"] + [f"instance_{j}" for j in range(len(bag.instances))],
               _labelled_rows(forward.attention.value[0], "mean",
                              forward.averaged.value.ravel()))
    written.append(path)
    return written


def _labelled_rows(matrix: np.ndarray, last_label: str, last: np.ndarray) -> list[list]:
    """Rows ``r0, r1, ...`` of ``matrix``, then ``last`` under ``last_label``."""
    rows = [[f"r{r}"] + [repr(float(x)) for x in matrix[r]] for r in range(matrix.shape[0])]
    return rows + [[last_label] + [repr(float(x)) for x in last]]
