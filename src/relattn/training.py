"""Loss assembly, Adam optimization, the training loop, and checkpoints.

The loss over a batch is the mean bag cross-entropy, plus the word-attention
orthogonality penalty summed over the batch's instances and divided by the
bag count, plus L2 decay on the weight matrices. Bags are processed in
sorted-bag-id order inside a batch so the loss value does not depend on how
the batch was assembled.
"""

from __future__ import annotations

import json
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import word_attention as wa
from .autodiff import Node, Parameter, Tape
from .config import ConfigError, ModelConfig
from .data import BLANK_TOKEN, SURROGATE, UNK_TOKEN, Bag, DataError, Dataset, Vocab, make_batches
from .model import Model

CHECKPOINT_MAGIC = "relattn-checkpoint"
CHECKPOINT_VERSION = 1

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDiverged(RuntimeError):
    """Loss or gradient norm became non-finite."""


class CheckpointError(ValueError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


@dataclass
class LogRow:
    epoch: int
    batch: int
    loss: float
    penalty: float
    ce: float
    l2: float


@dataclass
class TrainResult:
    model: Model
    log: list[LogRow]
    rng: np.random.Generator   # init/dropout stream, persisted into checkpoints


def objective(tape: Tape | None, probabilities: Node, labels, word_attentions: Node | None,
              decayed: Node | None, penalty_coef: float, l2_coef: float
              ) -> tuple[Node, dict[str, float]]:
    """The batch loss as one record, plus the values of its three terms: the
    mean negative log-probability of one label per row of ``probabilities``
    ``[bags x classes]``, each clamped at ``autodiff.LOG_FLOOR``, plus
    ``penalty_coef / bags`` times ``word_attention.attention_penalty`` of
    ``word_attentions``, plus ``l2_coef`` times the squared norm of
    ``decayed``. A term whose coefficient is 0 is skipped and its input not
    read. Every row must sum to 1 within 1e-6.

    Each term is a ``[1 x 1]`` array of its input's dtype, scaled and then
    added in that order. Backward adds L2's ``value·(2·g·l2_coef)`` into
    ``decayed`` by ``autodiff.sweep``, so its scratch is one block per
    thread, then the penalty's gradient into ``word_attentions``, then the
    cross-entropy's into ``probabilities``."""
    v = probabilities.value
    labels = np.atleast_1d(labels)
    n_bags = labels.size
    if v.ndim != 2 or v.shape[0] != n_bags:
        raise ad.ShapeError(f"the loss expects one row per label, got shape {v.shape} "
                            f"for {n_bags} labels")
    if ((labels < 0) | (labels >= v.shape[1])).any():
        raise IndexError(f"labels {labels.tolist()} out of range for {v.shape[1]} classes")
    totals = v.sum(axis=1)
    if np.abs(totals - 1.0).max() > 1e-6:
        raise ValueError(f"probabilities must sum to 1 within 1e-6, got {totals}")
    rows = np.arange(n_bags)
    p = v[rows, labels]
    loss = np.array([[-np.log(np.maximum(p, ad.LOG_FLOOR)).sum()]], dtype=v.dtype)
    loss = loss * (1.0 / n_bags)
    parts = {"ce": loss.item(), "penalty": 0.0, "l2": 0.0}
    if penalty_coef != 0.0:
        penalty, penalty_grad = wa.attention_penalty(word_attentions.value)
        penalty = penalty * (penalty_coef / n_bags)
        loss = loss + penalty
        parts["penalty"] = penalty.item()
    if l2_coef != 0.0:
        l2 = np.array([[ad.squared_norm(decayed.value)]], dtype=decayed.value.dtype) * l2_coef
        loss = loss + l2
        parts["l2"] = l2.item()
    out = Node(loss)
    if tape is not None:
        def bwd() -> None:
            g = out.grad
            if l2_coef != 0.0:
                g2 = g * l2_coef * 2.0
                grad = ad._ensure_grad(decayed)

                def add(block: slice) -> None:
                    grad[block] += decayed.value[block] * g2
                ad.sweep(add, decayed.value)
            if penalty_coef != 0.0:
                ad._accum(word_attentions, penalty_grad((g * (penalty_coef / n_bags)).item()))
            live = p >= ad.LOG_FLOOR   # below the clamp the loss is locally constant
            dp = np.zeros_like(v)
            dp[rows[live], labels[live]] = -(g * (1.0 / n_bags)).item() / p[live]
            ad._accum(probabilities, dp)
        tape.record(out, bwd)
    return out, parts


def total_loss(tape: Tape | None, bags: Sequence[Bag], model: Model,
               dropout_rng: np.random.Generator | None = None,
               ) -> tuple[Node, dict[str, float]]:
    """The model's :func:`objective` over a batch, plus the values of its three terms."""
    if not bags:
        raise ValueError("total_loss needs a non-empty batch")
    cfg = model.config
    ordered = sorted(bags, key=lambda b: b.bag_id)
    out = model.forward(tape, [bag.instances for bag in ordered], dropout_rng=dropout_rng)
    return objective(tape, out.probabilities, [bag.relation_id for bag in ordered],
                     out.word_attentions, model.decayed, cfg.penalty_coef, cfg.l2_coef)


def clip_gradients(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Scale all gradients down to the given global norm; returns the norm."""
    total = sum(ad.squared_norm(p.grad) for p in parameters)
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for p in parameters:
            p.grad *= factor
    return norm


def adam_step(parameters: Sequence[Parameter], config: ModelConfig) -> None:
    """Adam with bias correction at ``config.learning_rate``, with the fixed
    constants ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``; each parameter
    advances its own step count.

    The update runs in place by ``autodiff.sweep``, each row block through
    its own pair of block-sized scratch buffers, in the operation order of
    the plain formula ``(lr * (m/(1-b1^t))) / (sqrt(s/(1-b2^t)) + eps)``,
    so results match it bit for bit, on one thread or two.
    """
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPS, config.learning_rate
    for p in parameters:
        p.step += 1
        m_corr, s_corr = 1.0 - b1 ** p.step, 1.0 - b2 ** p.step

        def update(rows: slice) -> None:   # run and joined in this iteration
            g, m, s, value = (x[rows] for x in (p.grad, p.m, p.s, p.value))
            work, denom = np.empty((2, *g.shape), g.dtype)
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=work)
            s *= b2
            np.multiply(g, 1.0 - b2, out=work)
            s += np.multiply(work, g, out=work)
            np.sqrt(np.divide(s, s_corr, out=denom), out=denom)
            denom += eps
            np.divide(m, m_corr, out=work)
            work *= lr
            value -= np.divide(work, denom, out=work)
        ad.sweep(update, p.value)


# each step checks its loss and gradient norm, so numpy's warnings are noise
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(dataset: Dataset, config: ModelConfig,
          pretrained: dict[str, np.ndarray] | None = None,
          log_every: int = 0) -> TrainResult:
    """Full training run; deterministic for a fixed config and seed.

    ``default_rng(config.seed)`` draws the model and then the dropout masks.
    Each ``pretrained`` vector of a vocabulary token is written over its
    drawn ``word_emb`` row; one of the wrong dimension is a ValueError, and
    one with a value past the model's precision a DataError, before any
    epoch. Vectors of other tokens are ignored."""
    if len(dataset.relations) < 2:
        raise DataError(f"training data names {len(dataset.relations)} relation(s) "
                        f"{dataset.relations}; at least 2 are needed")
    rng = np.random.default_rng(config.seed)
    model = Model(config, len(dataset.vocab), len(dataset.relations), rng=rng)
    word, ids = model.embeddings.word.value, dataset.vocab.token_to_id
    for token, vec in (pretrained or {}).items():
        if token in ids:
            if vec.shape != word.shape[1:]:
                raise ValueError(f"embedding for {token!r} has dim {vec.shape}, "
                                 f"expected ({word.shape[1]},)")
            word[ids[token]] = vec
            if not np.isfinite(word[ids[token]]).all():
                raise DataError(f"embedding for {token!r} holds a value past {word.dtype}")

    rows: list[LogRow] = []
    for epoch in range(config.epochs):
        batches = make_batches(dataset, config.batch_size,
                               seed=config.seed * 1_000_003 + epoch)
        for b, bags in enumerate(batches):
            model.zero_grad()
            tape = Tape()
            loss, parts = total_loss(tape, bags, model, dropout_rng=rng)
            value = loss.value.item()
            if not np.isfinite(value):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, batch {b}")
            ad.backward(tape, loss)
            norm = clip_gradients(model.parameters(), config.grad_clip)
            if not np.isfinite(norm):
                raise TrainingDiverged(f"non-finite gradient at epoch {epoch}, batch {b}")
            adam_step(model.parameters(), config)
            rows.append(LogRow(epoch, b, value, parts["penalty"], parts["ce"], parts["l2"]))
        if log_every and (epoch + 1) % log_every == 0:
            epoch_rows = [r for r in rows if r.epoch == epoch]
            mean = sum(r.loss for r in epoch_rows) / len(epoch_rows)
            print(f"epoch {epoch + 1}/{config.epochs}  mean loss {mean:.4f}")
    return TrainResult(model, rows, rng)


def write_loss_log(rows: Sequence[LogRow], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("epoch,batch,loss,penalty,ce,l2\n")
        for r in rows:
            fh.write(f"{r.epoch},{r.batch},{r.loss!r},{r.penalty!r},{r.ce!r},{r.l2!r}\n")


# ---------------------------------------------------------------------------
# checkpoints: text header, then named little-endian float32 tensors


@dataclass
class Checkpoint:
    config: ModelConfig
    tensors: dict[str, np.ndarray]
    relations: list[str]
    tokens: list[str]
    rng_state: dict


def checkpoint_from(model: Model, vocab: Vocab, relations: Sequence[str],
                    rng: np.random.Generator) -> Checkpoint:
    """A checkpoint of ``model`` that saves the state of ``rng``, the run's
    init and dropout generator (:attr:`TrainResult.rng`)."""
    return Checkpoint(
        config=model.config,
        tensors={name: p.value.copy() for name, p in model.named_parameters().items()},
        relations=list(relations),
        tokens=list(vocab.id_to_token),
        rng_state=rng.bit_generator.state,
    )


def model_from_checkpoint(ckpt: Checkpoint) -> tuple[Model, Vocab]:
    vocab = Vocab(list(ckpt.tokens))
    try:
        model = Model(ckpt.config, len(vocab), len(ckpt.relations), tensors=ckpt.tensors)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint does not fit its own header: {exc}") from exc
    return model, vocab


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}\n".encode())
        for key, value in ckpt.config.to_dict().items():
            fh.write(f"config {key} {json.dumps(value)}\n".encode())
        fh.write(f"relations {json.dumps(ckpt.relations)}\n".encode())
        fh.write(f"tokens {json.dumps(ckpt.tokens)}\n".encode())
        fh.write(f"rng {json.dumps(ckpt.rng_state)}\n".encode())
        for name, arr in ckpt.tensors.items():
            rows, cols = arr.shape
            fh.write(f"tensor {name} {rows} {cols}\n".encode())
            fh.write(arr.astype("<f4").tobytes(order="C"))
        fh.write(b"end\n")


def _read_line(fh, path: Path) -> str:
    raw = fh.readline()
    if not raw:
        raise CheckpointError(f"{path}: truncated checkpoint (unexpected end of file)")
    try:
        return raw.decode("utf-8").rstrip("\n")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: header line is not UTF-8 text") from exc


def _read_json(text: str, path: Path, kind: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: bad JSON in {kind!r} header line: {exc.msg}") from exc


def _read_string_list(text: str, path: Path, kind: str) -> list[str]:
    value = _read_json(text, path, kind)
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise CheckpointError(f"{path}: {kind!r} header line must hold a JSON list of strings")
    if any(map(SURROGATE.search, value)):
        raise CheckpointError(f"{path}: {kind!r} header line holds a lone surrogate")
    repeated = [v for v, count in Counter(value).items() if count > 1]
    if repeated:
        raise CheckpointError(f"{path}: {kind!r} header line repeats {repeated[0]!r}")
    return value


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    with path.open("rb") as fh:
        size = path.stat().st_size
        head = _read_line(fh, path).split()
        if len(head) != 2 or head[0] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        if head[1] != str(CHECKPOINT_VERSION):
            raise CheckpointError(f"{path}: unsupported checkpoint version {head[1]}")
        config_values: dict = {}
        relations: list[str] | None = None
        tokens: list[str] | None = None
        rng_state: dict | None = None
        tensors: dict[str, np.ndarray] = {}
        while True:
            line = _read_line(fh, path)
            kind, _, rest = line.partition(" ")
            if kind == "end":
                break
            if kind == "config":
                key, _, value = rest.partition(" ")
                config_values[key] = _read_json(value, path, kind)
            elif kind == "relations":
                relations = _read_string_list(rest, path, kind)
            elif kind == "tokens":
                tokens = _read_string_list(rest, path, kind)
            elif kind == "rng":
                rng_state = _read_json(rest, path, kind)
                if not isinstance(rng_state, dict):
                    raise CheckpointError(f"{path}: 'rng' header line must hold a JSON object")
            elif kind == "tensor":
                try:
                    name, rows_s, cols_s = rest.split()
                    rows, cols = int(rows_s), int(cols_s)
                except ValueError as exc:
                    raise CheckpointError(f"{path}: bad tensor header {line!r}") from exc
                if min(rows, cols) < 0:
                    raise CheckpointError(f"{path}: negative size in tensor header {line!r}")
                nbytes = rows * cols * struct.calcsize("<f")
                left = size - fh.tell()   # checked before a read of that size is tried
                if nbytes > left:
                    raise CheckpointError(f"{path}: truncated tensor {name!r} "
                                          f"({nbytes} bytes claimed, {left} left)")
                if name in tensors:
                    raise CheckpointError(f"{path}: tensor {name!r} appears twice")
                blob = fh.read(nbytes)
                value = np.frombuffer(blob, dtype="<f4").reshape(rows, cols).copy()
                if not np.isfinite(value).all():
                    raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")
                tensors[name] = value
            else:
                raise CheckpointError(f"{path}: unrecognized section {kind!r}")
        if relations is None or tokens is None or rng_state is None or not config_values:
            raise CheckpointError(f"{path}: incomplete checkpoint header")
    if tokens[:2] != [BLANK_TOKEN, UNK_TOKEN]:
        raise CheckpointError(f"{path}: 'tokens' header line must start with "
                              f"{BLANK_TOKEN!r}, {UNK_TOKEN!r}")
    # older version-1 files carry "mask_padding true" (unmasked models cannot be
    # reproduced any more), "num_classes" (the relations line is the count now)
    # and Adam's constants, which shaped the optimizer, not the model
    for key in ("adam_beta1", "adam_beta2", "adam_eps"):
        config_values.pop(key, None)
    if config_values.pop("mask_padding", True) is not True:
        raise CheckpointError(f"{path}: unmasked models (mask_padding false) are not supported")
    if config_values.pop("num_classes", len(relations)) != len(relations):
        raise CheckpointError(f"{path}: header num_classes disagrees with its "
                              f"{len(relations)} relations")
    try:
        config = ModelConfig.from_dict(config_values)
    except (ConfigError, TypeError) as exc:
        raise CheckpointError(f"{path}: bad config in header: {exc}") from exc
    return Checkpoint(config, tensors, relations, tokens, rng_state)
