"""Tape ops and a per-tensor Adam that only the tests use.

``diffcore`` keeps the ops the model's tape is built from; these are the
ones the tests compose into reference paths.  The per-vector ops take one
vector (or one row) at a time, and ``matmul`` takes any pairing of vectors
and matrices: the per-step LSTM (``reference_lstm``) and the per-sentence
model pass ``test_hiermodel.reference_forward`` are built from them.  The
batch ops (``dense``, ``softmax_xent_rows``, ``concat``, ``segment_mean``,
``tanh``, ``reshape`` and the scalar arithmetic) compose the heads and
losses that ``hiermodel`` runs as one node (``reference_model``).  ``Adam``
is the reference for ``diffcore.Adam``, which runs over the store's flat
buffers.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from polyscale import diffcore as dc
from polyscale.diffcore import Tensor


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.value.shape != b.value.shape:
        raise ValueError(f"{op}: shape mismatch {a.value.shape} vs {b.value.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return Tensor(
        a.value + b.value,
        (a, b),
        (
            lambda g, acc: np.add(acc, g, out=acc),
            lambda g, acc: np.add(acc, g, out=acc),
        ),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    return Tensor(
        a.value - b.value,
        (a, b),
        (
            lambda g, acc: np.add(acc, g, out=acc),
            lambda g, acc: np.subtract(acc, g, out=acc),
        ),
    )


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return Tensor(c * a.value, (a,), (lambda g, acc: np.add(acc, c * g, out=acc),))


def square(a: Tensor) -> Tensor:
    av = a.value
    return Tensor(av * av, (a,), (lambda g, acc: np.add(acc, 2.0 * av * g, out=acc),))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.value)
    return Tensor(out, (a,), (lambda g, acc: np.add(acc, g * (1.0 - out * out), out=acc),))


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join along the last axis; all other dimensions must agree."""
    parts = list(parts)
    if not parts:
        raise ValueError("concat of no tensors")
    lead = parts[0].value.shape[:-1]
    for p in parts:
        if p.value.ndim == 0 or p.value.shape[:-1] != lead:
            raise ValueError("concat: shape mismatch outside the last axis")
    out = np.concatenate([p.value for p in parts], axis=-1)
    vjps = []
    offset = 0
    for p in parts:
        n = p.value.shape[-1]

        def vjp(g, acc, lo=offset, hi=offset + n):
            np.add(acc, g[..., lo:hi], out=acc)

        vjps.append(vjp)
        offset += n
    return Tensor(out, tuple(parts), tuple(vjps))


def mean_rows(a: Tensor) -> Tensor:
    """Mean over the first axis: (S, K) -> (K,), (S,) -> scalar."""
    av = a.value
    if av.ndim == 0 or av.shape[0] == 0:
        raise ValueError("mean_rows needs at least one row")
    inv = 1.0 / av.shape[0]
    out = av.sum(axis=0) * inv

    def vjp(g, acc):
        np.add(acc, inv * g, out=acc)

    return Tensor(out, (a,), (vjp,))


def segment_mean(rows: Tensor, counts) -> Tensor:
    """Mean of each run of consecutive rows: (sum(counts), K) -> (len(counts), K).

    Each run is summed in order over a zero-padded (runs, longest run, K)
    array, so a run's mean has the bits ``mean_rows`` gives it alone,
    whatever runs surround it (``np.add.reduceat`` sums in another order).
    """
    av = rows.value
    if av.ndim != 2 or min(counts, default=0) < 1 or sum(counts) != av.shape[0]:
        raise ValueError(f"segment_mean: counts {list(counts)} must split the {av.shape[0]} "
                         "rows of a 2-D tensor into runs of one row or more")
    counts = np.asarray(counts)
    real = np.arange(counts.max()) < counts[:, None]
    padded = np.zeros(real.shape + av.shape[1:])
    padded[real] = av
    inv = 1.0 / counts

    def vjp(g, acc):
        np.add(acc, np.repeat(inv[:, None] * g, counts, axis=0), out=acc)

    return Tensor(padded.sum(axis=1) * inv[:, None], (rows,), (vjp,))


def softmax_xent_rows(logits: Tensor, gold) -> tuple[Tensor, Tensor | None]:
    """Row-wise ``softmax_xent`` over (S, K) logits in two tape nodes.

    ``gold`` holds one class index per row, or -1 for an unlabeled row.
    Returns the (S, K) distributions and the mean cross-entropy over the
    labeled rows, or None when no row is labeled.
    """
    zv = logits.value
    if zv.ndim != 2:
        raise ValueError("softmax_xent_rows expects 2-D logits")
    gold = np.asarray(gold, dtype=np.intp)
    if gold.shape != zv.shape[:1]:
        raise ValueError(f"need one gold index per row, got shape {gold.shape}")
    if np.any((gold < -1) | (gold >= zv.shape[1])):
        raise ValueError(f"gold index out of range for {zv.shape[1]} classes")
    m = zv.max(axis=1, keepdims=True)
    e = np.exp(zv - m)
    total = e.sum(axis=1, keepdims=True)
    p = e / total

    def vjp_probs(g, acc):
        np.add(acc, p * (g - np.sum(g * p, axis=1, keepdims=True)), out=acc)

    probs = Tensor(p, (logits,), (vjp_probs,))
    rows = np.flatnonzero(gold >= 0)
    if not rows.size:
        return probs, None
    cols = gold[rows]
    inv = 1.0 / rows.size
    xents = (m[rows, 0] + np.log(total[rows, 0])) - zv[rows, cols]

    def vjp_loss(g, acc):
        acc[rows] += (g * inv) * p[rows]
        acc[rows, cols] -= g * inv

    return probs, Tensor(xents.sum() * inv, (logits,), (vjp_loss,))


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight + bias`` as one node over a (rows, K) batch ``x``.

    A 1-D ``weight`` with a scalar ``bias`` gives one score per row, each
    row's own dot product, so a row scores the same bits in any batch (a
    matrix-vector product sums in an order that depends on the batch).
    """
    xv, wv = x.value, weight.value
    if wv.ndim not in (1, 2) or xv.ndim != 2 or xv.shape[1] != wv.shape[0]:
        raise ValueError(f"dense: shape mismatch {xv.shape} @ {wv.shape}")
    if bias.value.shape != wv.shape[1:]:
        raise ValueError(f"dense: bias shape {bias.value.shape} for weight {wv.shape}")
    if wv.ndim == 1:  # stacked (1, K) @ (K, 1) products: one dot per row
        out = (xv[:, None, :] @ wv[:, None])[:, 0, 0]
        vjps = (
            lambda g, acc: np.add(acc, np.multiply.outer(g, wv), out=acc),
            lambda g, acc: np.add(acc, g @ xv, out=acc),
            lambda g, acc: np.add(acc, g.sum(), out=acc),
        )
    else:
        out = xv @ wv
        vjps = (
            lambda g, acc: np.add(acc, g @ wv.T, out=acc),
            lambda g, acc: np.add(acc, xv.T @ g, out=acc),
            lambda g, acc: np.add(acc, g.sum(axis=0), out=acc),
        )
    return Tensor(out + bias.value, (x, weight, bias), vjps)


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
    _same_shape(a, b, "mul")
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


def reshape(a: Tensor, shape) -> Tensor:
    """``a`` with a new shape of the same size."""
    out = a.value.reshape(shape)
    return Tensor(out, (a,), (lambda g, acc: np.add(acc, g.reshape(acc.shape), out=acc),))


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
