"""A walk through the reverse-mode tape.

Builds a small expression from a few taped operations, replays the tape
backward once, consuming it, and shows that the accumulated gradients agree with central
differences to many digits.
"""

import numpy as np

from relattn import autodiff as ad
from relattn.autodiff import Node, Parameter, Tape, backward, finite_diff_check
from relattn.training import objective

rng = np.random.default_rng(0)

# Two trainable leaves and one constant input.
w = Parameter("w", rng.uniform(-0.5, 0.5, (3, 4)))
b = Parameter("b", rng.uniform(-0.5, 0.5, (2, 3)))
x = Node(rng.uniform(-1.0, 1.0, (4, 5)))

print("forward: P = softmax_rows(B tanh(W x)), two rows over five columns")
print("  loss = mean(-log P[row, label]) + ||W W^T - I||_F^2 / 2 + 0.1 ||B||^2")
labels = [1, 3]


def forward(t):
    # the attention record of both model levels: both products, tanh and
    # softmax in one record, the five columns of x read as five rows
    probs = ad.attention(t, x, w, b)
    # the training loss, one record: cross-entropy, penalty per row and L2
    return objective(t, probs, labels, w, b, penalty_coef=1.0, l2_coef=0.1)[0]


tape = Tape()
loss = forward(tape)
print(f"  {len(tape)} operations recorded, loss = {loss.value.item():.6f}")

print("\nbackward: replaying the tape in reverse, accumulating into the leaves")
backward(tape, loss)
print(f"  {len(tape)} operations left: each was dropped once it had run")
print(f"  dloss/dw row 0: {np.array2string(w.grad[0], precision=5)}")
print(f"  dloss/db row 0: {np.array2string(b.grad[0], precision=5)}")

print("\ngradients accumulate until zeroed: a second pass on a new tape doubles them")
before = w.grad[0, 0]
tape = Tape()
backward(tape, forward(tape))
print(f"  w.grad[0,0]: {before:.6f} -> {w.grad[0, 0]:.6f}")
w.zero_grad()
b.zero_grad()

print("\nchecking every coordinate against central differences (h = 1e-6):")


def rebuild():
    t = Tape()
    return t, forward(t)


err = finite_diff_check(rebuild, [w, b])
print(f"  max relative error over {w.value.size + b.value.size} coordinates: {err:.2e}")
assert err < 1e-5
print("  agreement confirmed")
