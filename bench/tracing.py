"""Per-layer tracing of relattn, done entirely from outside the package.

:class:`Tracer` replaces the package's public layer functions, a few
``Model`` methods and ``autodiff.Tape.record`` with wrappers while it is
installed, and restores the originals afterwards. Each wrapped call becomes
a span (name, start, end, parent, step id); every backward closure recorded
while a span is open is timed when the tape replays it and charged to that
span's layer. Spans stay in memory until :meth:`Tracer.write`.

A layer's self time is its spans' durations minus the time covered by child
spans (and, for ``autodiff.backward``, minus the closures it replays). The
root span of a step belongs to no layer; its self time is reported as
``trace.uncovered_ms``, so the self times of one step add up to the step.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from relattn import (autodiff, data, encoder, evaluation, model, sentence_attention,
                     training, word_attention)

ROOT_SPAN = "step"
UNCOVERED = "trace.uncovered"

# (owner, attribute) -> layer. Calls go through these module attributes and
# class methods at run time, so replacing them intercepts every call site.
SPANNED = {
    (encoder, "embed_batch"): "encoder.embed",
    (encoder, "bilstm_encode_batch"): "encoder.bilstm",
    (word_attention, "word_attention_matrix"): "word_attention",
    (word_attention, "weighted_sentence_matrix"): "word_attention",
    (word_attention, "flatten_project"): "word_attention",
    (word_attention, "attention_penalty"): "word_attention",
    (sentence_attention, "stack_bag"): "sentence_attention",
    (sentence_attention, "sentence_attention_matrix"): "sentence_attention",
    (sentence_attention, "average_attention"): "sentence_attention",
    (sentence_attention, "selection_representation"): "sentence_attention",
    (sentence_attention, "classify"): "sentence_attention",
    (model.Model, "instance_outputs"): "model",
    (model.Model, "bag_outputs"): "model",
    (model.Model, "forward_bag"): "model",
    (model.Model, "predict_bag"): "model",
    (model.Model, "zero_grad"): "training.zero_grad",
    (training, "total_loss"): "training.loss",
    (training, "adam_step"): "training.adam",
    (training, "load_checkpoint"): "training.checkpoint_load",
    (training, "model_from_checkpoint"): "training.checkpoint_load",
    (autodiff, "backward"): "autodiff.backward",
    (data, "generate_synthetic"): "data.load",
    (data, "generate_synthetic_records"): "data.load",
    (data, "dataset_from_records"): "data.load",
    (data, "load_dataset"): "data.load",
    (data, "make_batches"): "data.make_batches",
    (evaluation, "score_test_set"): "evaluation.score",
    (evaluation, "hard_predictions"): "evaluation.hard_predictions",
    (evaluation, "gold_facts"): "evaluation.metrics",
    (evaluation, "pr_curve"): "evaluation.metrics",
    (evaluation, "p_at_n"): "evaluation.metrics",
    (evaluation, "macro_f1"): "evaluation.metrics",
}

# calls counted per step under these keys
CALL_COUNTERS = {
    "word_attention.word_attention_matrix": "word_attention.calls",
    "sentence_attention.sentence_attention_matrix": "sentence_attention.calls",
}


def _span_name(owner, attr: str) -> str:
    prefix = owner.__name__.rsplit(".", 1)[-1]
    return f"{prefix}.{attr}"


class Tracer:
    """Spans, backward-closure times and counts, grouped by step id."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent, step, child_s]
        self.layer_of: dict[str, str] = {ROOT_SPAN: UNCOVERED}
        self.bwd_s: dict = defaultdict(lambda: defaultdict(float))   # step -> layer -> s
        self.counts: dict = defaultdict(Counter)                     # step -> key -> n
        self._stack: list[int] = []
        self._step = None
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._step, 0.0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += end - span[1]

    @contextlib.contextmanager
    def step(self, step_id):
        """Root span of one closed-loop step; inner spans share ``step_id``."""
        self._step = step_id
        idx = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(idx)
            self._step = None

    def _current_layer(self) -> str:
        if not self._stack:
            return UNCOVERED
        return self.layer_of[self.spans[self._stack[-1]][0]]

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, fn):
        counter = CALL_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                self.counts[self._step][counter] += 1
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _bilstm(self, name: str, fn):
        # useful-column accounting: true lengths against the columns the
        # recurrence actually ran (lstm_step calls per direction x lanes)
        signature = inspect.signature(fn)
        spanned = self._spanned(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            lengths = signature.bind(*args, **kwargs).arguments["lengths"]
            counts = self.counts[self._step]
            before = counts["encoder.lstm_step_calls"]
            out = spanned(*args, **kwargs)
            steps_per_direction = (counts["encoder.lstm_step_calls"] - before) / 2
            counts["encoder.instances"] += len(lengths)
            counts["encoder.true_cols"] += int(sum(lengths))
            counts["encoder.run_cols"] += int(steps_per_direction * len(lengths))
            return out
        return wrapper

    def _lstm_step(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self._step]["encoder.lstm_step_calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _record(self, fn):
        tracer = self

        @functools.wraps(fn)
        def record(tape, out, backward_fn):
            layer = tracer._current_layer()
            step = tracer._step
            tracer.counts[step][f"{layer}.tape_records"] += 1

            def timed() -> None:
                start = perf_counter()
                backward_fn()
                elapsed = perf_counter() - start
                tracer.bwd_s[step][layer] += elapsed
                if tracer._stack:
                    tracer.spans[tracer._stack[-1]][5] += elapsed

            fn(tape, out, timed)
        return record

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced entry point; restore the originals on exit."""
        try:
            for (owner, attr), layer in SPANNED.items():
                name = _span_name(owner, attr)
                self.layer_of[name] = layer
                fn = getattr(owner, attr)
                if name == "encoder.bilstm_encode_batch":
                    self._patch(owner, attr, self._bilstm(name, fn))
                else:
                    self._patch(owner, attr, self._spanned(name, fn))
            self._patch(encoder, "lstm_step", self._lstm_step(encoder.lstm_step))
            self._patch(autodiff.Tape, "record", self._record(autodiff.Tape.record))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def totals(self, steps) -> dict:
        """Summed self/backward seconds, counts and root time over ``steps``."""
        steps = set(steps)
        fwd: dict[str, float] = defaultdict(float)
        bwd: dict[str, float] = defaultdict(float)
        counts: Counter = Counter()
        root_s = 0.0
        for name, start, end, _parent, step, child in self.spans:
            if step not in steps:
                continue
            fwd[self.layer_of[name]] += (end - start) - child
            if name == ROOT_SPAN:
                root_s += end - start
        for step in steps:
            for layer, seconds in self.bwd_s.get(step, {}).items():
                bwd[layer] += seconds
            counts.update(self.counts.get(step, Counter()))
        return {"fwd": fwd, "bwd": bwd, "counts": counts, "root_s": root_s}

    def write(self, path: Path, extra: dict) -> None:
        """Dump every span (times relative to the first) plus per-step tallies."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "span_fields": ["name", "start_s", "end_s", "parent", "step"],
            "spans": [[name, start - t0, end - t0, parent, step]
                      for name, start, end, parent, step, _ in self.spans],
            "backward_s": {str(step): dict(layers) for step, layers in self.bwd_s.items()},
            "counts": {str(step): dict(c) for step, c in self.counts.items()},
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")
