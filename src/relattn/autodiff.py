"""Dense-matrix reverse-mode differentiation on a replayable tape.

Every graph value is a 2-D float array (scalars are 1x1 matrices). Each
operation computes its result eagerly and records a backward closure on an
explicit :class:`Tape`; :func:`backward` replays the tape in exact reverse
execution order and *accumulates* gradients into the inputs, so leaves keep
collecting contributions until they are zeroed. :func:`finite_diff_check` is
the numerical oracle used to validate every backward rule.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

LOG_FLOOR = 1e-12     # clamp below this before taking log in cross_entropy
MASK_FILL = -1e9      # logit written into masked-out softmax columns


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class Node:
    """A value in the computation graph: a 2-D array plus its gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value) -> None:
        arr = np.asarray(value)
        if arr.ndim != 2:
            raise ShapeError(f"graph values must be 2-D, got shape {arr.shape}")
        self.value = arr
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.value.shape})"


class Parameter(Node):
    """Trainable leaf with a persistent gradient buffer and Adam slots."""

    __slots__ = ("name", "m", "s", "step")

    def __init__(self, name: str, value) -> None:
        super().__init__(np.array(value))
        self.name = name
        self.grad = np.zeros_like(self.value)
        self.m = np.zeros_like(self.value)   # first-moment estimate
        self.s = np.zeros_like(self.value)   # second-moment estimate
        self.step = 0

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


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
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    node.grad += g


def _ensure_grad(node: Node) -> np.ndarray:
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    return node.grad


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    # Collapse gradient of a broadcast result back onto the operand's shape.
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def backward(tape: Tape, loss: Node) -> None:
    """Accumulate d(loss)/d(leaf) into every leaf reachable from ``loss``.

    Intermediate (non-Parameter) gradients are reset before the replay, so
    calling backward twice on the same tape adds the same leaf contributions
    twice. Raises if ``loss`` is not scalar.
    """
    if loss.value.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    for out, _ in tape._records:
        if not isinstance(out, Parameter):
            out.grad = None
    _accum(loss, np.ones_like(loss.value))
    for out, fn in reversed(tape._records):
        if out.grad is not None:
            fn()


# ---------------------------------------------------------------------------
# primitive operations


def matmul(tape: Tape | None, a: Node, b: Node) -> Node:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    out = Node(a.value @ b.value)
    if tape is not None:
        def bwd() -> None:
            g = out.grad
            _accum(a, g @ b.value.T)
            _accum(b, a.value.T @ g)
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


def add_n(tape: Tape | None, nodes: Sequence[Node]) -> Node:
    """Sum of same-shaped nodes."""
    if not nodes:
        raise ValueError("add_n needs at least one node")
    total = nodes[0].value.copy()
    for n in nodes[1:]:
        if n.shape != nodes[0].shape:
            raise ShapeError(f"add_n: mixed shapes {nodes[0].shape} and {n.shape}")
        total += n.value
    out = Node(total)
    if tape is not None:
        def bwd() -> None:
            g = out.grad
            for n in nodes:
                _accum(n, g)
        tape.record(out, bwd)
    return out


def mul(tape: Tape | None, a: Node, b: Node) -> Node:
    out = Node(a.value * b.value)
    if tape is not None:
        def bwd() -> None:
            g = out.grad
            _accum(a, _unbroadcast(g * b.value, a.shape))
            _accum(b, _unbroadcast(g * a.value, b.shape))
        tape.record(out, bwd)
    return out


def scale(tape: Tape | None, a: Node, c: float) -> Node:
    out = Node(a.value * c)
    if tape is not None:
        def bwd() -> None:
            _accum(a, out.grad * c)
        tape.record(out, bwd)
    return out


def mul_const(tape: Tape | None, a: Node, const: np.ndarray) -> Node:
    """Elementwise product with a non-differentiated array (masks, dropout)."""
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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # two-branch form avoids overflow in exp for large |x|
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def lstm_cell(tape: Tape | None, pre: Node, c_prev: Node) -> tuple[Node, Node]:
    """Fused LSTM cell: ``(h, c)`` from gate pre-activations and the old cell.

    ``pre`` is ``[4u x n]`` with row blocks in gate order i, f, g, o;
    ``c_prev`` is ``[u x n]``. With i, f, o squashed by the sigmoid and g by
    tanh, ``c = f*c_prev + i*g`` and ``h = o*tanh(c)``. Two tape records, c
    then h: the reverse replay runs h's rule first, which adds its share into
    ``c.grad`` before c's rule passes the total on to ``pre`` and ``c_prev``.
    """
    u, n = c_prev.shape
    if pre.shape != (4 * u, n):
        raise ShapeError(f"lstm_cell: pre-activations {pre.shape} do not fit "
                         f"a cell state of shape {c_prev.shape}")
    z = pre.value
    gates = _sigmoid(z)   # the g block is unused; one call beats three slices
    i, f, o = gates[:u], gates[u:2 * u], gates[3 * u:]
    g = np.tanh(z[2 * u:3 * u])
    c = Node(f * c_prev.value + i * g)
    tc = np.tanh(c.value)
    h = Node(o * tc)
    if tape is not None:
        def bwd_c() -> None:
            gc = c.grad
            dpre = _ensure_grad(pre)
            dpre[:u] += gc * g * i * (1.0 - i)
            dpre[u:2 * u] += gc * c_prev.value * f * (1.0 - f)
            dpre[2 * u:3 * u] += gc * i * (1.0 - g * g)
            _accum(c_prev, gc * f)

        def bwd_h() -> None:
            gh = h.grad
            _ensure_grad(pre)[3 * u:] += gh * tc * o * (1.0 - o)
            _accum(c, gh * o * (1.0 - tc * tc))

        tape.record(c, bwd_c)
        tape.record(h, bwd_h)
    return h, c


def relu_map(tape: Tape | None, a: Node) -> Node:
    out = Node(np.maximum(a.value, 0.0))
    if tape is not None:
        def bwd() -> None:
            # subgradient 0 at exactly x == 0
            _accum(a, out.grad * (a.value > 0))
        tape.record(out, bwd)
    return out


def row_softmax(tape: Tape | None, a: Node, valid_cols: np.ndarray | None = None) -> Node:
    """Softmax over each row, with max-subtraction for stability.

    ``valid_cols`` is an optional boolean mask over columns; logits of masked
    columns are replaced by a large negative fill so they get zero weight and
    zero gradient.
    """
    z = a.value
    if valid_cols is not None:
        valid = np.asarray(valid_cols, dtype=bool)
        if valid.shape != (z.shape[1],):
            raise ShapeError(f"valid_cols must have shape ({z.shape[1]},), got {valid.shape}")
        if not valid.any():
            raise ValueError("row_softmax: every column is masked out")
        z = np.where(valid[None, :], z, z.dtype.type(MASK_FILL))
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    out = Node(p)
    if tape is not None:
        def bwd() -> None:
            g = out.grad
            dot = (g * p).sum(axis=1, keepdims=True)
            _accum(a, p * (g - dot))
        tape.record(out, bwd)
    return out


def transpose(tape: Tape | None, a: Node) -> Node:
    out = Node(a.value.T)
    if tape is not None:
        def bwd() -> None:
            _accum(a, out.grad.T)
        tape.record(out, bwd)
    return out


def reshape(tape: Tape | None, a: Node, rows: int, cols: int) -> Node:
    """Row-major reshape."""
    out = Node(a.value.reshape(rows, cols))
    if tape is not None:
        def bwd() -> None:
            _accum(a, out.grad.reshape(a.shape))
        tape.record(out, bwd)
    return out


def hconcat(tape: Tape | None, nodes: Sequence[Node]) -> Node:
    if not nodes:
        raise ValueError("hconcat needs at least one node")
    out = Node(np.concatenate([n.value for n in nodes], axis=1))
    if tape is not None:
        def bwd() -> None:
            g = out.grad
            offset = 0
            for n in nodes:
                w = n.shape[1]
                _accum(n, g[:, offset:offset + w])
                offset += w
        tape.record(out, bwd)
    return out


def vconcat(tape: Tape | None, nodes: Sequence[Node]) -> Node:
    if not nodes:
        raise ValueError("vconcat needs at least one node")
    out = Node(np.concatenate([n.value for n in nodes], axis=0))
    if tape is not None:
        def bwd() -> None:
            g = out.grad
            offset = 0
            for n in nodes:
                h = n.shape[0]
                _accum(n, g[offset:offset + h, :])
                offset += h
        tape.record(out, bwd)
    return out


def slice_cols(tape: Tape | None, a: Node, start: int, stop: int) -> Node:
    out = Node(a.value[:, start:stop])
    if tape is not None:
        def bwd() -> None:
            _ensure_grad(a)[:, start:stop] += out.grad
        tape.record(out, bwd)
    return out


def take_rows(tape: Tape | None, a: Node, ids) -> Node:
    """Gather rows by index; duplicate indices accumulate on backward."""
    idx = np.asarray(ids, dtype=np.intp)
    out = Node(a.value[idx, :])
    if tape is not None:
        def bwd() -> None:
            np.add.at(_ensure_grad(a), idx, out.grad)
        tape.record(out, bwd)
    return out


def take_cols(tape: Tape | None, a: Node, ids) -> Node:
    idx = np.asarray(ids, dtype=np.intp)
    out = Node(a.value[:, idx])
    if tape is not None:
        def bwd() -> None:
            np.add.at(_ensure_grad(a), (slice(None), idx), out.grad)
        tape.record(out, bwd)
    return out


def mean_rows(tape: Tape | None, a: Node) -> Node:
    """Column-wise mean over rows, keeping a 1-row matrix."""
    rows = a.shape[0]
    out = Node(a.value.mean(axis=0, keepdims=True))
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


def sum_squares(tape: Tape | None, a: Node) -> Node:
    out = Node(np.array([[(a.value * a.value).sum()]], dtype=a.value.dtype))
    if tape is not None:
        def bwd() -> None:
            _accum(a, 2.0 * a.value * out.grad)
        tape.record(out, bwd)
    return out


def frobenius_penalty(tape: Tape | None, a: Node) -> Node:
    """Squared Frobenius norm of (A A^T - I): zero iff rows are orthonormal."""
    s = a.value @ a.value.T
    s[np.diag_indices_from(s)] -= 1.0
    out = Node(np.array([[(s * s).sum()]], dtype=a.value.dtype))
    if tape is not None:
        def bwd() -> None:
            _accum(a, (4.0 * out.grad.item()) * (s @ a.value))
        tape.record(out, bwd)
    return out


def cross_entropy(tape: Tape | None, probabilities: Node, label: int) -> Node:
    """Negative log-probability of ``label``, clamped below at LOG_FLOOR.

    ``probabilities`` must be a row or column vector summing to 1 within 1e-6.
    """
    v = probabilities.value
    if v.shape[0] != 1 and v.shape[1] != 1:
        raise ShapeError(f"cross_entropy expects a vector, got shape {v.shape}")
    flat = v.reshape(-1)
    if not 0 <= label < flat.size:
        raise IndexError(f"label {label} out of range for {flat.size} classes")
    total = flat.sum().item()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"probabilities must sum to 1 within 1e-6, got {total}")
    p = flat[label].item()
    out = Node(np.array([[-np.log(max(p, LOG_FLOOR))]], dtype=v.dtype))
    if tape is not None:
        def bwd() -> None:
            if p >= LOG_FLOOR:   # below the clamp the loss is locally constant
                g = np.zeros_like(v)
                g.reshape(-1)[label] = -out.grad.item() / p
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
