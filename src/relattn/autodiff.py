"""Dense-matrix reverse-mode differentiation on a replayable tape.

Every graph value is a 2-D float array (scalars are 1x1 matrices), or a 3-D
stack of them along a leading batch axis. Each operation computes its result
eagerly and records one backward closure on an explicit :class:`Tape`, as
the model's layer functions do with this module's helpers. :func:`backward`
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

LOG_FLOOR = 1e-12     # clamp below this before the loss takes a probability's log
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
# 13.0, squared_norm 1.86 -> 1.69 and L2's backward 4.30 -> 3.06; a
# [300 x 600] x [2 x 600 x 70] product (25M) 1.10 -> 1.10, a 35M row-blocked
# weight gradient 1.60 -> 1.20. The synth profile's store (47K entries),
# products (at most 2.3M) and BiLSTM directions (at most 13.6M, one
# direction's forward multiply-adds) stay on one thread; train_nyt's sweeps
# (7.3M-8.1M entries), products (178M-416M, twice that for a record's
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


def _openblas(name: str, restype=ctypes.c_int):
    """What ``openblas_<name>()`` of the OpenBLAS that numpy loaded returns,
    under any of its builds' symbol names, or None if it cannot be asked
    (another BLAS, or a build without the query)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = restype
                fn.argtypes = []
                return fn()
    return None


@functools.cache
def _blas_threads() -> int | None:
    """Threads the OpenBLAS that numpy loaded uses, or None. Asked once."""
    return _openblas("get_num_threads")


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
    on it is raised here, unless the lower half raised first; the worker
    runs under this thread's numpy floating-point error handling. One split
    at a time: a call made while a split runs, on either of
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
        upper, state = {}, np.geterr()

        def run() -> None:
            try:
                with np.errstate(**state):   # a new thread starts at numpy's default
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


def grad_pair(first: Callable[[], object], second: Callable[[], object],
              g: np.ndarray, k: int) -> list:
    """The results of a record's two gradient tasks, ``first`` then ``second``,
    for an output gradient ``g`` whose products run over an inner dimension
    ``k``: one :func:`halves` call of ``2 * g.size * k`` multiply-adds, the
    one rule by which every record's gradient pair splits."""
    return halves([first, second], 2 * g.size * k)


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


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y``, every record's forward product and the only place a product
    splits. A 2-D ``x`` of two rows or more times a 2-D ``y``, of at least
    ``CONCURRENT_MIN_PRODUCT`` multiply-adds, runs as two products, one per
    half of ``x``'s rows, the two tasks of one :func:`halves` call; the
    split is a function of the shape alone, and each entry is the same call
    on one thread or two. Every other product, stacks included, is one call."""
    if x.shape[-1] != y.shape[-2]:
        raise ShapeError(f"inner dimensions disagree, {x.shape} x {y.shape}")
    work = len(x) * y.size
    if x.ndim != 2 or y.ndim != 2 or len(x) < 2 or work < CONCURRENT_MIN_PRODUCT:
        return x @ y
    out = np.empty((len(x), y.shape[1]), np.result_type(x, y))
    mid = (len(x) + 1) // 2
    halves([functools.partial(np.matmul, x[rows], y, out=out[rows])
            for rows in (slice(None, mid), slice(mid, None))], work)
    return out


def _weight_grad(w: Node, g: np.ndarray, x: np.ndarray) -> None:
    """Add ``g @ x.T`` into 2-D ``w``'s gradient over row blocks of about
    ``PRODUCT_BLOCK`` entries: one block of scratch, the same dot products."""
    grad = _ensure_grad(w)
    for rows in row_blocks(w.value, PRODUCT_BLOCK):
        grad[rows] += g[rows] @ x.T


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


def mul_const(tape: Tape | None, a: Node, const: np.ndarray | float) -> Node:
    """Elementwise product with a non-differentiated array (masks, dropout) or
    scalar."""
    out = Node(a.value * const)
    if out.shape != a.shape:
        raise ShapeError("mul_const must not broadcast the node operand up")
    if tape is not None:
        def bwd() -> None:
            _accum(a, out.grad * const)
        tape.record(out, bwd)
    return out


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    return p * (g - (g * p).sum(axis=-1, keepdims=True))


def attention(tape: Tape | None, x: Node, w1: Node, w2: Node,
              valid: np.ndarray | None = None) -> Node:
    """``softmax(W2 tanh(W1 X))`` of a 2-D ``x`` ``[d x N]``, each row over the
    columns ``valid`` keeps (all if ``None``); a ``valid`` ``[B x 1 x N]``
    gives ``[B x r x N]``, one matrix per mask. One record whose products
    are taken as ``W1·X`` (:func:`packed_attention` takes ``X W1ᵀ``); backward
    adds each weight's gradient pair as one :func:`grad_pair`, ``W2``'s and
    then ``W1``'s with ``W1ᵀ·dZ`` into ``x``."""
    h = _product(w1.value, x.value)
    np.tanh(h, out=h)
    z = _product(w2.value, h)
    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
        if not valid.any(axis=-1).all():
            raise ValueError("attention: every column is masked out")
        z = np.where(valid, z, z.dtype.type(MASK_FILL))
    p = _softmax(z)
    out = Node(p)
    if tape is not None:
        def bwd() -> None:
            dl = _softmax_grad(p, out.grad)
            if dl.ndim == 3:   # the masks' matrices share the weights
                dl = dl.sum(axis=0)
            dz = grad_pair(lambda: _weight_grad(w2, dl, h), lambda: w2.value.T @ dl,
                           dl, w2.shape[1])[1]
            dz *= 1.0 - h * h
            grad_pair(lambda: _weight_grad(w1, dz, x.value), lambda: _accum(x, w1.value.T @ dz),
                      dz, w1.shape[1])
        tape.record(out, bwd)
    return out


def packed_attention(tape: Tape | None, x: Node, w1: Node, w2: Node,
                     valid: np.ndarray | None = None) -> Node:
    """:func:`attention` of each lane's ``[d x T]`` states up to rounding, in
    one record that reads only the columns of ``x`` ``[n x d x T]`` that
    ``valid`` ``[n x 1 x T]`` keeps (every column if ``None``), as one
    block of rows ``X`` ``[P x d]``; ``X W1ᵀ`` is one :func:`_product`.
    Backward adds into ``w2``, then ``dZᵀ·X`` into ``w1`` and ``dZ·W1`` into
    the kept columns of ``x``, one :func:`grad_pair`."""
    n, d, t = x.shape
    keep = np.ones((n, t), bool) if valid is None else np.asarray(valid, dtype=bool)[:, 0]
    if keep.shape != (n, t) or w1.shape[1] != d or w2.shape[1] != w1.shape[0]:
        raise ShapeError(f"packed_attention: {w2.shape} x {w1.shape} x {x.shape}, "
                         f"mask {np.shape(valid)}")
    if not keep.any(axis=-1).all():
        raise ValueError("packed_attention: every column is masked out")
    kept = np.nonzero(keep)   # (lane, step) of each kept column, taken once
    rows = x.value.swapaxes(1, 2)[kept]
    h = _product(rows, w1.value.T)
    np.tanh(h, out=h)
    z = np.full((n, w2.shape[0], t), MASK_FILL, rows.dtype)
    z.swapaxes(1, 2)[kept] = h @ w2.value.T
    p = _softmax(z)
    out = Node(p)
    if tape is not None:
        def bwd() -> None:
            dl = _softmax_grad(p, out.grad).swapaxes(1, 2)[kept]   # [P x r]
            _accum(w2, dl.T @ h)
            dz = dl @ w2.value
            dz *= 1.0 - h * h
            grad = _ensure_grad(x)

            def into_x() -> None:
                grad.swapaxes(1, 2)[kept] += dz @ w1.value
            grad_pair(lambda: _accum(w1, dz.T @ rows), into_x, dz, d)
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
