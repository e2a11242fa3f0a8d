"""Reverse-mode automatic differentiation over a small fixed op vocabulary.

Everything is float64 numpy.  A ``Tensor`` wraps a value plus closures that
accumulate vector-Jacobian products into its parents, so a forward pass builds
the tape and ``backward`` walks it once.  Ops: matmul, add, sub, scale, tanh,
square, concat, reshape, the mean over rows (``mean_rows``) and over runs of
rows (``segment_mean``), batched row lookup (``gather``), a row-wise fused
softmax cross-entropy, and ``dense`` (matmul plus bias, the one op that
broadcasts its bias over a batch of rows).  No other broadcasting: operand
shapes must match exactly where elementwise semantics apply.  Per-vector ops
that only the tests' reference paths use live in ``tests/reference_ops.py``.

An LSTM direction is two parameters (``init_lstm_params``): one
(in + hidden, 4 * hidden) weight holding the input and recurrent rows of all
four gates, and one 4 * hidden bias.  It runs as one tape node per padded
batch of sequences (``lstm_sequence``, paired up by ``bilstm_batch``) whose
parents are the input, the weight and the bias: the input projection of every
step is one matmul, the recurrence runs in numpy, and backpropagation through
time happens inside the node's vector-Jacobian product.  A per-step reference
path lives in the tests (``tests/reference_lstm.py``).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np


class Tensor:
    """A tape node: value, optional gradient, and backward closures."""

    __slots__ = ("value", "grad", "parents", "vjps", "requires_grad")

    def __init__(self, value, parents=(), vjps=(), requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.vjps = vjps
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, requires_grad={self.requires_grad})"


def constant(value) -> Tensor:
    return Tensor(value)


def backward(root: Tensor) -> None:
    """Accumulate dL/dp into every reachable parameter, L being ``root``.

    ``root`` must be a scalar.  Intermediate gradients are freed as soon as
    they have been propagated; leaf gradients accumulate (callers zero them).
    """
    if root.value.shape != ():
        raise ValueError(f"backward root must be a scalar, got shape {root.value.shape}")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    root.grad = np.ones(())
    for node in reversed(order):
        g = node.grad
        if g is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            if not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.value)
            vjp(g, parent.grad)
        if node.parents:
            node.grad = None


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


def reshape(a: Tensor, shape) -> Tensor:
    """``a`` with a new shape of the same size."""
    out = a.value.reshape(shape)
    return Tensor(out, (a,), (lambda g, acc: np.add(acc, g.reshape(acc.shape), out=acc),))


def gather(matrix: Tensor, ids) -> Tensor:
    """Batched row lookup: ``matrix[ids]`` for an integer array ``ids``."""
    if matrix.value.ndim != 2:
        raise ValueError("gather expects a 2-D tensor")
    ids = np.asarray(ids, dtype=np.intp)
    width = matrix.value.shape[1]
    flat = ids.reshape(-1)

    def vjp(g, acc):
        np.add.at(acc, flat, g.reshape(-1, width))

    return Tensor(matrix.value[ids], (matrix,), (vjp,))


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


class ParameterStore:
    """Named parameter leaves with persistent gradient slots."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, value) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
        t.grad = np.zeros_like(t.value)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params.items())

    def __len__(self):
        return len(self._params)

    @property
    def names(self) -> list[str]:
        return list(self._params)

    def zero_grad(self) -> None:
        for t in self._params.values():
            if t.grad is None:
                t.grad = np.zeros_like(t.value)
            else:
                t.grad.fill(0.0)

    def n_values(self) -> int:
        return sum(t.value.size for t in self._params.values())

    def grad_norm(self) -> float:
        total = 0.0
        for t in self._params.values():
            if t.grad is not None:
                total += float(np.sum(t.grad * t.grad))
        return math.sqrt(total)


INIT_SCALE = 0.08


def init_lstm_params(
    store: ParameterStore, prefix: str, input_dim: int, hidden_dim: int, rng: np.random.Generator
) -> tuple[Tensor, Tensor]:
    """One LSTM direction as ``<prefix>.weight`` and ``<prefix>.bias``.

    The weight is (input_dim + hidden_dim, 4 * hidden_dim): input rows over
    recurrent rows, with one column block per gate in i/f/o/c order; the bias
    is (4 * hidden_dim,).  Entries are Uniform(-0.08, 0.08), drawn gate by
    gate (input block, recurrent block, bias block), and the forget-gate bias
    is pinned to 1.
    """
    n = hidden_dim
    weight = np.empty((input_dim + n, 4 * n))
    bias = np.empty(4 * n)
    for gate in range(4):
        block = slice(gate * n, (gate + 1) * n)
        weight[:input_dim, block] = rng.uniform(-INIT_SCALE, INIT_SCALE, (input_dim, n))
        weight[input_dim:, block] = rng.uniform(-INIT_SCALE, INIT_SCALE, (n, n))
        bias[block] = 1.0 if gate == 1 else rng.uniform(-INIT_SCALE, INIT_SCALE, n)
    return store.add(f"{prefix}.weight", weight), store.add(f"{prefix}.bias", bias)


def lstm_sequence(
    x: Tensor, params: tuple[Tensor, Tensor], lengths=None, reverse: bool = False
) -> Tensor:
    """Hidden states of a padded batch of sequences, as one tape node.

    ``x`` is (B, T, d) for B sequences padded to T steps, or (T, d) for a
    single sequence; ``lengths`` gives each sequence's true length (all T
    when omitted).  ``params`` is the (weight, bias) pair that
    ``init_lstm_params`` makes: rows ``Wx`` over rows ``Wh``, gate blocks in
    i/f/o/c order.  The input projection ``x @ Wx + b`` runs for every step
    in one matmul ahead of the recurrence, and the recurrence itself runs in
    numpy.  A padded step carries its sequence's state unchanged, so the
    result, (B, T, n) or (T, n), holds each sequence's last state at step
    T - 1 and, with ``reverse``, at step 0.  The backward pass does
    backpropagation through time inside one vector-Jacobian product.
    """
    xv = x.value
    single = xv.ndim == 2
    xb = xv[None] if single else xv
    if xb.ndim != 3:
        raise ValueError("lstm_sequence expects (T, d) or (B, T, d) inputs")
    batch, steps, width = xb.shape
    weight, bias = params
    n = bias.value.shape[0] // 4
    if steps == 0:
        raise ValueError("cannot encode an empty sequence")
    # time-major from here on: row t of every array is step t of the batch
    valid = None  # (T, B) mask of real steps; None when nothing is padded
    ragged = [False] * steps  # steps where some sequence is padding
    if lengths is not None:
        lengths = [int(k) for k in lengths]
        shortest = min(lengths, default=0)
        if len(lengths) != batch or shortest < 1 or max(lengths) > steps:
            raise ValueError(f"lengths must be {batch} values in 1..{steps}; an "
                             "empty sequence cannot be encoded")
        if shortest < steps:
            valid = np.arange(steps)[:, None] < np.array(lengths)
            ragged = [t >= shortest for t in range(steps)]
    # Halving the i/f/o pre-activations turns sigmoid into 0.5 + 0.5 tanh(z/2),
    # so one tanh call covers all four gates.  Halving is exact in floating
    # point, and doubling back recovers the weights bit for bit.
    w = weight.value.copy()
    b = bias.value.copy()
    w[:, : 3 * n] *= 0.5
    b[: 3 * n] *= 0.5
    wx, wh = w[:width], w[width:]
    xt = xb.transpose(1, 0, 2).reshape(steps * batch, width)
    zx = (xt @ wx + b).reshape(steps, batch, 4 * n)

    acts = np.empty((steps, batch, 4 * n))  # sigmoid i, f, o then tanh g
    cells = np.empty((steps, batch, n))
    hidden = np.empty((steps, batch, n))
    h = np.zeros((batch, n))
    c = h
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    for t in order:
        a = acts[t]
        np.matmul(h, wh, out=a)
        a += zx[t]
        np.tanh(a, out=a)
        sig = a[:, : 3 * n]
        sig *= 0.5
        sig += 0.5
        c_next = np.multiply(a[:, n : 2 * n], c, out=cells[t])
        c_next += a[:, :n] * a[:, 3 * n :]
        h_next = np.tanh(c_next, out=hidden[t])
        h_next *= a[:, 2 * n : 3 * n]
        if ragged[t]:  # padded sequences keep their state
            gap = ~valid[t]
            c_next[gap] = c[gap]
            h_next[gap] = h[gap]
        c, h = c_next, h_next

    cache: list = []

    def grads(g):
        if cache and cache[0] is g:
            return cache[1]
        # state entering each step: its neighbour in scan order, zero first
        early, late = slice(None, -1), slice(1, None)
        dst, src = (early, late) if reverse else (late, early)
        h_prev = np.zeros_like(hidden)
        c_prev = np.zeros_like(cells)
        h_prev[dst] = hidden[src]
        c_prev[dst] = cells[src]
        i, f, o = acts[..., :n], acts[..., n : 2 * n], acts[..., 2 * n : 3 * n]
        gg = acts[..., 3 * n :]
        tc = np.tanh(cells)
        out_gain = o * (1.0 - tc * tc)
        gate_gain = np.concatenate(
            (gg * i * (1.0 - i), c_prev * f * (1.0 - f),
             tc * o * (1.0 - o), i * (1.0 - gg * gg)),
            axis=-1,
        )
        if valid is not None:
            # A padded step copies the state: zero gate gains keep dz at zero,
            # a zero output gain keeps the hidden-state gradient out of the
            # cell, and that gradient passes on through ``pad`` below.  No cell
            # gradient reaches a padded step, so ``f`` needs no mask.
            pad = ~valid
            out_gain[pad] = 0.0
            gate_gain[pad] = 0.0
        gt = g[:, None] if single else g.transpose(1, 0, 2)
        wx_t = wx.T.copy()
        wh_t = wh.T.copy()
        for w in (wx_t, wh_t):
            w[: 3 * n] *= 2.0
        dz = np.empty_like(acts)
        dh = np.zeros((batch, n))
        dc = dh
        for t in reversed(order):
            dh = dh + gt[t]
            dcn = dh * out_gain[t]
            dcn += dc
            np.multiply(np.concatenate((dcn, dcn, dh, dcn), axis=1), gate_gain[t], out=dz[t])
            dc = dcn * f[t]
            if ragged[t]:
                dh = dz[t] @ wh_t + dh * pad[t, :, None]
            else:
                dh = dz[t] @ wh_t
        dz2 = dz.reshape(steps * batch, 4 * n)
        dx = (dz2 @ wx_t).reshape(steps, batch, width).transpose(1, 0, 2)
        dw = np.empty((width + n, 4 * n))
        np.matmul(xt.T, dz2, out=dw[:width])
        np.matmul(h_prev.reshape(steps * batch, n).T, dz2, out=dw[width:])
        cache[:] = [g, (dx[0] if single else dx, dw, dz2.sum(axis=0))]
        return cache[1]

    def vjp(k):
        return lambda g, acc: np.add(acc, grads(g)[k], out=acc)

    out = hidden[:, 0] if single else hidden.transpose(1, 0, 2)
    return Tensor(out, (x, weight, bias), (vjp(0), vjp(1), vjp(2)))


def _last_states(fwd: Tensor, bwd: Tensor) -> Tensor:
    """[fwd at the last step; bwd at step 0] per sequence, as one node."""
    fv, bv = fwd.value, bwd.value
    n = fv.shape[-1]

    def vjp_fwd(g, acc):
        acc[..., -1, :] += g[..., :n]

    def vjp_bwd(g, acc):
        acc[..., 0, :] += g[..., n:]

    out = np.concatenate((fv[..., -1, :], bv[..., 0, :]), axis=-1)
    return Tensor(out, (fwd, bwd), (vjp_fwd, vjp_bwd))


def bilstm_batch(
    x: Tensor, forward: tuple[Tensor, Tensor], backward_params: tuple[Tensor, Tensor],
    lengths=None,
) -> tuple[Tensor, Tensor]:
    """Both directions of a bidirectional LSTM over ``lstm_sequence`` nodes.

    Returns the per-step [fwd; bwd] states, (B, T, 2n) or (T, 2n), and the
    final [last fwd; last bwd] state per sequence, (B, 2n) or (2n,): the
    backward direction's last state is the one at step 0, after it has
    consumed the whole sequence.  For a padded sequence the per-step states
    past its length are filler.
    """
    fwd = lstm_sequence(x, forward, lengths)
    bwd = lstm_sequence(x, backward_params, lengths, reverse=True)
    return concat([fwd, bwd]), _last_states(fwd, bwd)


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight + bias`` as one node; a 2-D ``x`` is a batch of rows.

    A 1-D ``weight`` with a scalar ``bias`` gives one score per row, each
    row's own dot product, so a row scores the same bits in any batch (a
    matrix-vector product sums in an order that depends on the batch).
    """
    xv, wv = x.value, weight.value
    if wv.ndim not in (1, 2) or xv.ndim not in (1, 2) or xv.shape[-1] != wv.shape[0]:
        raise ValueError(f"dense: shape mismatch {xv.shape} @ {wv.shape}")
    if bias.value.shape != wv.shape[1:]:
        raise ValueError(f"dense: bias shape {bias.value.shape} for weight {wv.shape}")
    x2 = xv.reshape(-1, wv.shape[0])
    if wv.ndim == 1:  # stacked (1, K) @ (K, 1) products: one dot per row
        out = (x2[:, None, :] @ wv[:, None])[:, 0, 0].reshape(xv.shape[:-1])
        vjps = (
            lambda g, acc: np.add(acc, np.multiply.outer(g, wv), out=acc),
            lambda g, acc: np.add(acc, g.reshape(-1) @ x2, out=acc),
            lambda g, acc: np.add(acc, g.sum(), out=acc),
        )
    else:
        out = xv @ wv
        vjps = (
            lambda g, acc: np.add(acc, g @ wv.T, out=acc),
            lambda g, acc: np.add(acc, x2.T @ g.reshape(x2.shape[0], -1), out=acc),
            lambda g, acc: np.add(acc, g.reshape(-1, wv.shape[1]).sum(axis=0), out=acc),
        )
    return Tensor(out + bias.value, (x, weight, bias), vjps)


class Adam:
    """Adam with global gradient-norm clipping, applied in place."""

    def __init__(self, store: ParameterStore, lr=1e-3, beta1=0.9, beta2=0.999,
                 eps=1e-8, clip_norm=5.0):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.clip_norm = clip_norm
        self.t = 0
        self._m = {name: np.zeros_like(t.value) for name, t in store}
        self._v = {name: np.zeros_like(t.value) for name, t in store}

    def step(self) -> None:
        self.t += 1
        norm = self.store.grad_norm()
        factor = 1.0
        if self.clip_norm is not None and norm > self.clip_norm:
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


def check_gradients(
    loss_fn: Callable[[], Tensor],
    store: ParameterStore,
    epsilon: float = 1e-4,
    names: Iterable[str] | None = None,
) -> float:
    """Max relative error between tape gradients and central differences.

    ``loss_fn`` must rebuild the tape from the store's current values on each
    call.  Relative error per coordinate is |ga - gn| / max(1e-8, |ga| + |gn|).
    """
    store.zero_grad()
    backward(loss_fn())
    analytic = {name: t.grad.copy() for name, t in store}
    worst = 0.0
    selected = list(names) if names is not None else store.names
    for name in selected:
        param = store[name]
        flat = param.value.reshape(-1)
        ga_flat = analytic[name].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + epsilon
            f_plus = float(loss_fn().value)
            flat[j] = orig - epsilon
            f_minus = float(loss_fn().value)
            flat[j] = orig
            gn = (f_plus - f_minus) / (2.0 * epsilon)
            ga = ga_flat[j]
            rel = abs(ga - gn) / max(1e-8, abs(ga) + abs(gn))
            if rel > worst:
                worst = rel
    return worst
