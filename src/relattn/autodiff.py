"""Dense-matrix reverse-mode differentiation on a replayable tape.

Every graph value is a 2-D float array (scalars are 1x1 matrices), or a 3-D
stack of them along a leading batch axis; a 2-D operand of a batched op is
shared by the whole batch. Each operation computes its result eagerly and
records a backward closure on an explicit :class:`Tape`; :func:`backward`
replays the tape in exact reverse execution order and *accumulates*
gradients into the inputs, so leaves keep collecting contributions until
they are zeroed. :func:`finite_diff_check` is the numerical oracle used to
validate every backward rule.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

LOG_FLOOR = 1e-12     # clamp below this before taking log in cross_entropy
MASK_FILL = -1e9      # logit written into masked-out softmax columns
ROW_BLOCK = 1 << 16   # entries per block of a parameter-sized update, so scratch stays in cache
# entries per block of a weight gradient's product. Each block is one BLAS
# call that packs the other operand again: blocks of ROW_BLOCK entries (12
# rows of word_mlp_weight) took 19 ms, these (97 rows) 10 ms, as did the
# whole product
PRODUCT_BLOCK = 1 << 19
# The smallest sweep, in entries, and the smallest product, in multiply-adds,
# that halves runs on two threads; below them the thread costs more than it
# saves. float32, one BLAS thread, two cores, caches flushed before each
# call, ms on one thread -> two: at 2**21 entries zero_grad 1.07 -> 1.12 and
# squared_norm 1.02 -> 1.12; at 2**22 zero_grad 2.28 -> 1.63, Adam 18.6 ->
# 13.0, squared_norm 1.86 -> 1.69 and sum_squares' backward 4.30 -> 3.06; a
# [300 x 600] x [2 x 600 x 70] product (25M) 1.10 -> 1.10, a 35M row-blocked
# weight gradient 1.60 -> 1.20. The synth profile's store (47K entries),
# products (at most 2.3M) and BiLSTM directions (at most 13.6M, one
# direction's forward multiply-adds) stay on one thread; train_nyt's sweeps
# (7.3M-8.1M entries), products (178M-416M, twice that for a matmul record's
# gradient pair) and directions (770M) split.
CONCURRENT_MIN_ENTRIES = 1 << 22
CONCURRENT_MIN_PRODUCT = 1 << 25


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class Node:
    """A value in the computation graph: a 2-D or 3-D array plus its gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value) -> None:
        arr = np.asarray(value)
        if arr.ndim not in (2, 3):
            raise ShapeError(f"graph values must be 2-D or 3-D, got shape {arr.shape}")
        self.value = arr
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.value.shape})"


class Parameter(Node):
    """Trainable leaf with a persistent gradient buffer and Adam slots.

    The gradient and Adam buffers are allocated zeroed, like ``value``,
    unless given. A :meth:`view` has no Adam slots."""

    __slots__ = ("name", "m", "s", "step")

    def __init__(self, name: str, value, grad=None, m=None, s=None) -> None:
        super().__init__(np.asarray(value))
        self.name = name
        self.grad = np.zeros_like(self.value) if grad is None else grad
        self.m = np.zeros_like(self.value) if m is None else m   # first-moment estimate
        self.s = np.zeros_like(self.value) if s is None else s   # second-moment estimate
        self.step = 0

    @classmethod
    def view(cls, name: str, value: np.ndarray, grad: np.ndarray) -> Parameter:
        """A leaf over slices of a larger parameter's value and gradient,
        which that parameter's own Adam slots update; allocates nothing."""
        p = cls.__new__(cls)
        Node.__init__(p, value)
        p.name, p.grad = name, grad
        return p

    def zero_grad(self) -> None:
        """Zero the gradient; a large one in two halves of its rows, on two
        threads where :func:`halves` allows. Zeroing needs no scratch, so it
        is two fills, not one per block."""
        halves([functools.partial(part.fill, 0.0) for part in np.array_split(self.grad, 2)
                if len(part)], self.grad.size, CONCURRENT_MIN_ENTRIES)


class Tape:
    """Ordered record of executed operations, replayed strictly in reverse."""

    __slots__ = ("_records",)

    def __init__(self) -> None:
        self._records: list[tuple[Node, Callable[[], None]]] = []

    def record(self, out: Node, backward_fn: Callable[[], None]) -> None:
        self._records.append((out, backward_fn))

    def __len__(self) -> int:
        return len(self._records)


def _accum(node: Node, g: np.ndarray) -> None:
    """Add ``g`` into ``node.grad``.

    The first gradient into a node is copied once into a buffer laid out like
    the node's value, so later rules compute exactly as with a zero-filled
    buffer. Against zero-fill-plus-add, only the sign of a zero can differ
    (``0.0 + -0.0`` is ``0.0``); Parameter gradients, which start at ``0.0``,
    come out bit for bit the same.
    """
    if node.grad is None:
        node.grad = np.empty_like(node.value)
        np.copyto(node.grad, g)
    else:
        node.grad += g


def row_blocks(a: np.ndarray, entries: int = ROW_BLOCK) -> Iterator[slice]:
    """Slices of ``a``'s leading axis, each of about ``entries`` entries."""
    rows = max(1, entries // a[0].size)
    return (slice(lo, lo + rows) for lo in range(0, a.shape[0], rows))


# ---------------------------------------------------------------------------
# the second core


@functools.cache
def _blas_threads() -> int | None:
    """Threads the OpenBLAS that numpy loaded uses, or None if it cannot be
    asked (another BLAS, or a build without the query). Asked once."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _two_cores() -> bool:
    """Whether two threads of numpy work run at once: the BLAS reports its
    thread count, and the usable CPUs hold two threads' worth of it.
    Multithreaded BLAS already fills the cores, and on a shared core two
    threads ran slower than one after the other."""
    threads = _blas_threads()
    return threads is not None and 2 * threads <= _usable_cpus()


_split = threading.Lock()   # held while a split of halves runs


def halves(tasks: list[Callable[[], object]], work: int, least: int | None = None) -> list:
    """The results of independent zero-argument ``tasks``, in task order. Where
    there are two tasks or more, ``work`` is at least ``least`` (by default
    ``CONCURRENT_MIN_PRODUCT``, read at each call), :func:`_two_cores` holds
    and no split is running, the upper half of the tasks runs on a new
    thread, the only place one starts, while this thread runs the lower
    half; the worker is joined before this returns, and an exception raised
    on it is raised here, unless the lower half raised first. One split at a time: a call made while a split runs, on either of
    its threads or any other, runs its tasks in turn on its own thread, so no
    call starts a third thread. Every task makes the same calls either way,
    so the results hold the same bits. A thread per call, not one long-lived
    worker: over 6 alternating pairs of 30 s train_nyt benchmark runs, such a
    worker read 121.0 against 123.5 ms step_ms_norm, inside the spread."""
    if (len(tasks) < 2 or work < (CONCURRENT_MIN_PRODUCT if least is None else least)
            or not _two_cores() or not _split.acquire(blocking=False)):
        return [task() for task in tasks]
    try:
        half = (len(tasks) + 1) // 2
        upper = {}

        def run() -> None:
            try:
                upper["value"] = [task() for task in tasks[half:]]
            except BaseException as exc:   # raised again in the calling thread
                upper["error"] = exc
        thread = threading.Thread(target=run, name="relattn-worker")
        thread.start()
        try:
            lower = [task() for task in tasks[:half]]
        finally:
            thread.join()
    finally:
        _split.release()
    if "error" in upper:
        raise upper["error"]
    return lower + upper["value"]


def sweep(fn: Callable[[slice], object], a: np.ndarray) -> list:
    """``[fn(rows)]`` over the row blocks of ``a`` of about ``ROW_BLOCK`` entries
    each, so a pass's scratch stays in cache; every pass over the parameter
    store runs through it. The blocks run in two halves by :func:`halves`
    where ``a`` holds at least ``CONCURRENT_MIN_ENTRIES`` entries."""
    return halves([functools.partial(fn, rows) for rows in row_blocks(a)], a.size,
                  CONCURRENT_MIN_ENTRIES)


def squared_norm(a: np.ndarray) -> float:
    """Sum of the squared entries of ``a``, with no squared copy: one BLAS dot
    per flat block of ``ROW_BLOCK`` entries in memory order, the blocks'
    sums added in float64, in that order. Over millions of float32 entries
    one whole dot drifts by about 1e-5 relative, as it accumulates in
    float32; blocks keep the error near 1e-8, as a pairwise sum would."""
    flat = a.ravel(order="K")
    return sum(sweep(lambda rows: float(np.dot(flat[rows], flat[rows])), flat))


def _ensure_grad(node: Node) -> np.ndarray:
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    return node.grad


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Collapse gradient of a broadcast result back onto the operand's shape.
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, size in enumerate(shape)
                                      if size == 1 and g.shape[lead + i] != 1)
    return g.sum(axis=axes).reshape(shape)


def _batched_product(x: np.ndarray, y: np.ndarray, ndim: int) -> np.ndarray:
    # x @ y, summed over the batch for a 2-D operand; one tensordot never
    # materializes the stack of per-entry products
    if ndim == 2 and x.ndim == 3:
        return np.tensordot(x, y, axes=([0, 2], [0, 1]))
    return _product(x, y)


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y``. A 2-D ``x`` times ``y`` of at least ``CONCURRENT_MIN_PRODUCT``
    multiply-adds is split by its shape alone, whatever the core count: a
    2-D ``y`` into one product per row block of ``x`` of about
    ``PRODUCT_BLOCK`` entries, a stack ``y`` into one product per half of the
    stack. Those products run in two halves by :func:`halves`, each entry
    by the same call on one thread or two. Other products are one call."""
    work = len(x) * y.size
    if x.ndim != 2 or work < CONCURRENT_MIN_PRODUCT:
        return x @ y
    out = np.empty(y.shape[:-2] + (len(x), y.shape[-1]), np.result_type(x, y))
    if y.ndim == 2:
        parts = [(x[rows], y, out[rows]) for rows in row_blocks(x, PRODUCT_BLOCK)]
    else:
        half = (len(y) + 1) // 2
        parts = [(x, y[lo:lo + half], out[lo:lo + half]) for lo in range(0, len(y), half)]
    halves([functools.partial(np.matmul, a, b, out=into) for a, b, into in parts], work)
    return out


def backward(tape: Tape, loss: Node) -> None:
    """Accumulate d(loss)/d(leaf) into every leaf reachable from ``loss``.

    Every record's output is a fresh intermediate Node, never a Parameter.
    Their gradients are reset before the replay, so calling backward twice
    on the same tape adds the same leaf contributions twice. Each record's
    output gradient is released as soon as its rule has run, so
    intermediate gradients cannot be read after the replay: every record
    output holds ``grad is None``. Parameters, and leaf nodes that no record
    outputs, keep what they collected. Raises if ``loss`` is not scalar.
    """
    if loss.value.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    for out, _ in tape._records:
        out.grad = None
    _accum(loss, np.ones_like(loss.value))
    for out, fn in reversed(tape._records):
        if out.grad is not None:
            fn()
            out.grad = None


# ---------------------------------------------------------------------------
# primitive operations


def matmul(tape: Tape | None, a: Node, b: Node) -> Node:
    """Matrix product; a 2-D operand broadcasts against a batched one.

    Backward adds the gradients into ``a`` and into ``b``, the two tasks of
    one :func:`halves` call whose work is both gradients' multiply-adds;
    when ``a is b`` they add into one buffer in turn, never split. A 2-D
    Parameter's gradient ``g @ b.T`` is added over row blocks of about
    ``PRODUCT_BLOCK`` entries, so its scratch is one block, not a whole
    weight-sized product; each block's entries are the same dot products.
    A 2-D operand times a large stack, and a large 2-D product, split as
    :func:`_product` says; either way the results are the same bits."""
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    out = Node(_product(a.value, b.value))
    if tape is not None:
        def bwd() -> None:
            g = out.grad

            def into_a() -> None:
                if isinstance(a, Parameter) and g.ndim == 2:
                    for rows in row_blocks(a.value, PRODUCT_BLOCK):
                        a.grad[rows] += g[rows] @ b.value.T
                else:
                    _accum(a, _batched_product(g, np.swapaxes(b.value, -1, -2), a.value.ndim))

            def into_b() -> None:
                _accum(b, _batched_product(np.swapaxes(a.value, -1, -2), g, b.value.ndim))
            if a is b:
                into_a()
                into_b()
            else:
                halves([into_a, into_b], 2 * g.size * a.shape[-1])
        tape.record(out, bwd)
    return out


def add(tape: Tape | None, a: Node, b: Node) -> Node:
    out = Node(a.value + b.value)
    if tape is not None:
        def bwd() -> None:
            g = out.grad
            _accum(a, _unbroadcast(g, a.shape))
            _accum(b, _unbroadcast(g, b.shape))
        tape.record(out, bwd)
    return out


def mul_const(tape: Tape | None, a: Node, const: np.ndarray | float) -> Node:
    """Elementwise product with a non-differentiated array (masks, dropout) or
    scalar (loss weights)."""
    out = Node(a.value * const)
    if out.shape != a.shape:
        raise ShapeError("mul_const must not broadcast the node operand up")
    if tape is not None:
        def bwd() -> None:
            _accum(a, out.grad * const)
        tape.record(out, bwd)
    return out


def tanh_map(tape: Tape | None, a: Node) -> Node:
    y = np.tanh(a.value)
    out = Node(y)
    if tape is not None:
        def bwd() -> None:
            _accum(a, out.grad * (1.0 - y * y))
        tape.record(out, bwd)
    return out


def relu_map(tape: Tape | None, a: Node) -> Node:
    out = Node(np.maximum(a.value, 0.0))
    if tape is not None:
        def bwd() -> None:
            # subgradient 0 at exactly x == 0
            _accum(a, out.grad * (a.value > 0))
        tape.record(out, bwd)
    return out


def row_softmax(tape: Tape | None, a: Node, valid_cols: np.ndarray | None = None) -> Node:
    """Softmax over the last axis, with max-subtraction for stability.

    ``valid_cols`` is an optional boolean mask that broadcasts against the
    logits and may add a batch axis; logits of masked columns are replaced by
    a large negative fill so they get zero weight and zero gradient.
    """
    z = a.value
    if valid_cols is not None:
        valid = np.asarray(valid_cols, dtype=bool)
        if not valid.any(axis=-1).all():
            raise ValueError("row_softmax: every column is masked out")
        z = np.where(valid, z, z.dtype.type(MASK_FILL))
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Node(p)
    if tape is not None:
        def bwd() -> None:
            g = out.grad
            dot = (g * p).sum(axis=-1, keepdims=True)
            _accum(a, _unbroadcast(p * (g - dot), a.shape))
        tape.record(out, bwd)
    return out


def transpose(tape: Tape | None, a: Node) -> Node:
    """Swap the last two axes."""
    out = Node(np.swapaxes(a.value, -1, -2))
    if tape is not None:
        def bwd() -> None:
            _accum(a, np.swapaxes(out.grad, -1, -2))
        tape.record(out, bwd)
    return out


def reshape(tape: Tape | None, a: Node, *shape: int) -> Node:
    """Row-major reshape to ``shape`` (one entry may be -1)."""
    out = Node(a.value.reshape(shape))
    if tape is not None:
        def bwd() -> None:
            _accum(a, out.grad.reshape(a.shape))
        tape.record(out, bwd)
    return out


def mean_rows(tape: Tape | None, a: Node) -> Node:
    """Column-wise mean over the rows (axis -2) of each matrix, kept as 1 row."""
    rows = a.shape[-2]
    out = Node(a.value.mean(axis=-2, keepdims=True))
    if tape is not None:
        def bwd() -> None:
            _accum(a, np.broadcast_to(out.grad / rows, a.shape))
        tape.record(out, bwd)
    return out


def sum_all(tape: Tape | None, a: Node) -> Node:
    out = Node(np.array([[a.value.sum()]], dtype=a.value.dtype))
    if tape is not None:
        def bwd() -> None:
            _accum(a, np.broadcast_to(out.grad, a.shape))
        tape.record(out, bwd)
    return out


def sum_squares(tape: Tape | None, *nodes: Node) -> Node:
    """Sum of the squared entries of all ``nodes``, each by :func:`squared_norm`.

    Backward adds ``value * 2g`` into each gradient by :func:`sweep`, so its
    scratch is one block per thread, not a whole tensor. Doubling is exact,
    so this equals ``(2 * value) * g`` bit for bit."""
    total = sum(squared_norm(n.value) for n in nodes)
    out = Node(np.array([[total]], dtype=nodes[0].value.dtype))
    if tape is not None:
        def bwd() -> None:
            g2 = out.grad * 2.0
            for n in nodes:
                grad = _ensure_grad(n)

                def add(rows: slice) -> None:   # run and joined in this iteration
                    grad[rows] += n.value[rows] * g2
                sweep(add, n.value)
        tape.record(out, bwd)
    return out


def frobenius_penalty(tape: Tape | None, a: Node) -> Node:
    """Squared Frobenius norm of (A A^T - I), batch-summed: zero iff rows are orthonormal."""
    s = a.value @ np.swapaxes(a.value, -1, -2)
    s -= np.eye(s.shape[-1], dtype=s.dtype)
    out = Node(np.array([[(s * s).sum()]], dtype=a.value.dtype))
    if tape is not None:
        def bwd() -> None:
            _accum(a, (4.0 * out.grad.item()) * (s @ a.value))
        tape.record(out, bwd)
    return out


def cross_entropy(tape: Tape | None, probabilities: Node, labels) -> Node:
    """Summed negative log-probability of one label per row, each clamped at LOG_FLOOR.

    ``probabilities`` is ``[labels x classes]``; every row must sum to 1 within 1e-6."""
    v = probabilities.value
    labels = np.atleast_1d(labels)
    if v.ndim != 2 or v.shape[0] != labels.size:
        raise ShapeError(f"cross_entropy expects one row per label, got shape {v.shape} "
                         f"for {labels.size} labels")
    if ((labels < 0) | (labels >= v.shape[1])).any():
        raise IndexError(f"labels {labels.tolist()} out of range for {v.shape[1]} classes")
    totals = v.sum(axis=1)
    if np.abs(totals - 1.0).max() > 1e-6:
        raise ValueError(f"probabilities must sum to 1 within 1e-6, got {totals}")
    idx = np.arange(labels.size)
    p = v[idx, labels]
    out = Node(np.array([[-np.log(np.maximum(p, LOG_FLOOR)).sum()]], dtype=v.dtype))
    if tape is not None:
        def bwd() -> None:
            live = p >= LOG_FLOOR   # below the clamp the loss is locally constant
            g = np.zeros_like(v)
            g[idx[live], labels[live]] = -out.grad.item() / p[live]
            _accum(probabilities, g)
        tape.record(out, bwd)
    return out


# ---------------------------------------------------------------------------
# numerical oracle


def finite_diff_check(f: Callable[[], tuple[Tape, Node]],
                      params: Iterable[Parameter],
                      h: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` rebuilds the forward pass from scratch and returns (tape, loss);
    it must be deterministic and must close over ``params``. The relative
    error per coordinate is |analytic - numeric| / max(1e-8, |analytic| +
    |numeric|). Requires 64-bit parameters.
    """
    params = list(params)
    for p in params:
        if p.value.dtype != np.float64:
            raise ValueError(f"finite_diff_check requires float64 parameters ({p.name})")
        p.zero_grad()
    tape, loss = f()
    backward(tape, loss)
    analytic = {id(p): p.grad.copy() for p in params}

    worst = 0.0
    for p in params:
        flat = p.value.reshape(-1)
        ana = analytic[id(p)].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f()[1].value.item()
            flat[i] = orig - h
            down = f()[1].value.item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            err = abs(ana[i] - numeric) / max(1e-8, abs(ana[i]) + abs(numeric))
            worst = max(worst, err)
    return worst
