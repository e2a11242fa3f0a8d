"""Per-vector tape ops and a per-tensor Adam that only the tests use.

``diffcore`` runs the model on batches of rows; these ops take one vector
(or one row) at a time, and ``matmul`` takes any pairing of vectors and
matrices.  The per-step LSTM (``reference_lstm``), the per-sentence model
pass ``test_hiermodel.reference_forward`` and the op tests in
``test_diffcore`` build their tapes from them.  ``Adam`` is the reference
for ``diffcore.Adam``, which runs over the store's flat buffers.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from polyscale import diffcore as dc
from polyscale.diffcore import Tensor


def matmul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.value, b.value
    out = av @ bv
    if av.ndim == 1 and bv.ndim == 2:
        vjps = (
            lambda g, acc: np.add(acc, bv @ g, out=acc),
            lambda g, acc: np.add(acc, np.outer(av, g), out=acc),
        )
    elif av.ndim == 2 and bv.ndim == 1:
        vjps = (
            lambda g, acc: np.add(acc, np.outer(g, bv), out=acc),
            lambda g, acc: np.add(acc, av.T @ g, out=acc),
        )
    elif av.ndim == 2 and bv.ndim == 2:
        vjps = (
            lambda g, acc: np.add(acc, g @ bv.T, out=acc),
            lambda g, acc: np.add(acc, av.T @ g, out=acc),
        )
    elif av.ndim == 1 and bv.ndim == 1:
        vjps = (
            lambda g, acc: np.add(acc, g * bv, out=acc),
            lambda g, acc: np.add(acc, g * av, out=acc),
        )
    else:
        raise ValueError(f"matmul: unsupported ndim pair {av.ndim}, {bv.ndim}")
    return Tensor(out, (a, b), vjps)


def mul(a: Tensor, b: Tensor) -> Tensor:
    dc._same_shape(a, b, "mul")
    av, bv = a.value, b.value
    return Tensor(
        av * bv,
        (a, b),
        (
            lambda g, acc: np.add(acc, g * bv, out=acc),
            lambda g, acc: np.add(acc, g * av, out=acc),
        ),
    )


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    # exp only ever sees non-positive arguments, so it cannot overflow
    out = 1.0 / (1.0 + np.exp(-np.abs(z)))
    return np.where(z >= 0, out, 1.0 - out)


def sigmoid(a: Tensor) -> Tensor:
    out = _stable_sigmoid(a.value)
    return Tensor(out, (a,), (lambda g, acc: np.add(acc, g * out * (1.0 - out), out=acc),))


def softmax(a: Tensor) -> Tensor:
    av = a.value
    if av.ndim != 1:
        raise ValueError("softmax expects a 1-D tensor")
    z = av - av.max()
    e = np.exp(z)
    p = e / e.sum()

    def vjp(g, acc):
        np.add(acc, p * (g - np.dot(g, p)), out=acc)

    return Tensor(p, (a,), (vjp,))


def mean(parts: Sequence[Tensor]) -> Tensor:
    """Elementwise mean of same-shaped tensors."""
    parts = list(parts)
    if not parts:
        raise ValueError("mean of no tensors")
    shape = parts[0].value.shape
    for p in parts:
        if p.value.shape != shape:
            raise ValueError("mean: shape mismatch")
    inv = 1.0 / len(parts)
    out = parts[0].value.copy()
    for p in parts[1:]:
        out += p.value
    out *= inv

    def vjp(g, acc):
        np.add(acc, inv * g, out=acc)

    return Tensor(out, tuple(parts), (vjp,) * len(parts))


def row(matrix: Tensor, index: int) -> Tensor:
    """Row lookup, the embedding-table access path."""
    if matrix.value.ndim != 2:
        raise ValueError("row expects a 2-D tensor")
    index = int(index)
    out = matrix.value[index].copy()

    def vjp(g, acc):
        acc[index] += g

    return Tensor(out, (matrix,), (vjp,))


def softmax_xent(logits: Tensor, gold: int) -> tuple[Tensor, Tensor]:
    """Softmax distribution plus cross-entropy against a gold index.

    The loss is computed via log-sum-exp and its backward is the closed form
    p - onehot, so both stay finite for any logit magnitude.
    """
    zv = logits.value
    if zv.ndim != 1:
        raise ValueError("softmax_xent expects 1-D logits")
    gold = int(gold)
    if not 0 <= gold < zv.shape[0]:
        raise ValueError(f"gold index {gold} out of range for {zv.shape[0]} classes")
    m = zv.max()
    e = np.exp(zv - m)
    total = e.sum()
    p = e / total

    def vjp_probs(g, acc):
        np.add(acc, p * (g - np.dot(g, p)), out=acc)

    probs = Tensor(p, (logits,), (vjp_probs,))
    loss_value = (m + math.log(total)) - zv[gold]

    def vjp_loss(g, acc):
        acc += g * p
        acc[gold] -= g

    loss = Tensor(loss_value, (logits,), (vjp_loss,))
    return probs, loss


class Adam:
    """``diffcore.Adam`` one tensor at a time: per-tensor moments and an
    expression per tensor, with the norm summed tensor by tensor.  The flat
    optimizer must match it bit for bit."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, store: dc.ParameterStore, lr=1e-3, clip_norm=5.0):
        self.store = store
        self.lr = lr
        self.clip_norm = clip_norm
        self.t = 0
        self._m = {name: np.zeros_like(t.value) for name, t in store}
        self._v = {name: np.zeros_like(t.value) for name, t in store}

    def step(self) -> float:
        self.t += 1
        total = 0.0
        for _, t in self.store:
            total += float(np.sum(t.grad * t.grad))
        norm = math.sqrt(total)
        factor = 1.0
        if norm > self.clip_norm:
            factor = self.clip_norm / norm
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for name, param in self.store:
            g = param.grad * factor
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            param.value -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
        return norm
