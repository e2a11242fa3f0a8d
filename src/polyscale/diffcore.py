"""Reverse-mode automatic differentiation over a small fixed op vocabulary.

Everything is float64 numpy.  A ``Tensor`` wraps a value plus closures that
accumulate vector-Jacobian products into its parents, so a forward pass builds
the tape and ``backward`` walks it once.  Ops: ``constant``, batched row
lookup (``gather``) and the bidirectional LSTM below.  A model adds its own
larger nodes by building ``Tensor`` directly: ``hiermodel``'s heads and
losses of a document are one node.  The elementwise, pooling, softmax,
``dense`` and ``reshape`` ops that the tests compose into reference paths
live in ``tests/reference_ops.py``.

An LSTM direction is two parameters (``init_lstm_params``): one
(in + hidden, 4 * hidden) weight holding the input and recurrent rows of all
four gates, and one 4 * hidden bias.  A bidirectional layer runs as one tape
node per batch of sequences (``bilstm_batch``) whose parents are the input
and both directions' weight and bias.  Sequences go in and come out as
packed rows, one sequence after another; the node pads them to its scan
layout and back inside itself.  Each direction's input projection is one
matmul; the two recurrences run in one numpy scan over stacked
(2, batch, hidden) states, and backpropagation through time runs in one
reversed scan inside the node's vector-Jacobian products.  The
per-direction and per-step reference paths live in the tests
(``tests/reference_lstm.py``).

``ParameterStore`` keeps every parameter value in one flat buffer and every
gradient in another; each tensor's arrays are views of its segment.
``Adam`` updates the whole buffer with a fixed number of in-place calls.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

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
    if root.grad is None:
        root.grad = np.ones(())
    else:  # a parameter: add to its slot of the store's gradient buffer
        root.grad += 1.0
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


class ParameterStore:
    """Named parameter leaves over one flat value buffer and one flat gradient
    buffer.

    Each tensor's ``value`` and ``grad`` are reshaped views of its segment of
    the two buffers, segments in the order the tensors were added, so
    ``zero_grad`` is one fill and ``Adam`` updates every parameter with a
    fixed number of whole-buffer calls.  Write parameters in place
    (``t.value[...] = ...``): a rebound ``value`` leaves the buffer.  The
    buffers double when an ``add`` overflows them, and the views of every
    tensor move to the new ones, so hold tensors, not their arrays, across an
    ``add``.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._bounds: list[tuple[int, int]] = []  # each tensor's segment
        self._values = np.empty(0)
        self._grads = np.empty(0)
        self._size = 0

    def add(self, name: str, value) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        value = np.asarray(value, dtype=np.float64)
        lo, hi = self._size, self._size + value.size
        if hi > self._values.size:
            self._grow(max(hi, 2 * self._values.size))
        self._values[lo:hi] = value.reshape(-1)
        self._size = hi
        self._bounds.append((lo, hi))
        t = Tensor(self._values[lo:hi].reshape(value.shape), requires_grad=True)
        t.grad = self._grads[lo:hi].reshape(value.shape)
        self._params[name] = t
        return t

    def _grow(self, capacity: int) -> None:
        values, grads = np.empty(capacity), np.zeros(capacity)
        values[: self._size] = self.values
        grads[: self._size] = self.grads
        self._values, self._grads = values, grads
        for t, (lo, hi) in zip(self._params.values(), self._bounds):
            t.value = values[lo:hi].reshape(t.value.shape)
            t.grad = grads[lo:hi].reshape(t.value.shape)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __iter__(self):
        return iter(self._params.items())

    def __len__(self):
        return len(self._params)

    @property
    def names(self) -> list[str]:
        return list(self._params)

    @property
    def values(self) -> np.ndarray:
        """Every parameter value, flat, in store order (a view)."""
        return self._values[: self._size]

    @property
    def grads(self) -> np.ndarray:
        """Every gradient, flat, in store order (a view)."""
        return self._grads[: self._size]

    def zero_grad(self) -> None:
        self.grads.fill(0.0)

    def n_values(self) -> int:
        return self._size

    def grad_norm(self, scratch: np.ndarray) -> float:
        """The Euclidean norm of every gradient.

        The squares go to ``scratch`` (one slot per value) in one call, and
        each tensor's squares are summed on their own, in store order, so the
        norm has the bits of a sum over per-tensor sums.
        """
        squares = np.multiply(self.grads, self.grads, out=scratch)
        total = 0.0
        for lo, hi in self._bounds:
            total += float(squares[lo:hi].sum())
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


def bilstm_batch(
    x: Tensor, forward: tuple[Tensor, Tensor], backward_params: tuple[Tensor, Tensor], lengths
) -> tuple[Tensor, Tensor]:
    """Both directions of a bidirectional LSTM over a batch of sequences, as
    one node.

    ``x`` is packed: (sum(lengths), d), the rows of one sequence after
    another, each in step order.  ``forward`` and ``backward_params`` are
    (weight, bias) pairs that ``init_lstm_params`` makes: rows ``Wx`` over
    rows ``Wh``, gate blocks in i/f/o/c order.  Returns the per-step
    [fwd; bwd] states, packed like ``x`` as (sum(lengths), 2n), in one node
    whose parents are ``x`` and the four parameters, and the final
    [last fwd; last bwd] state per sequence, (len(lengths), 2n), as a small
    node over it (``_final_states``).

    Inside, the node scans a slot-major layout: the B sequences padded to
    the longest, T steps.  Slot s holds forward step s and backward step
    T - 1 - s, every state array is (2, B, n), and the recurrent products of
    both directions are one stacked matmul.  A padded step carries its
    sequence's state unchanged and gets no gradient.  Each direction's input
    projection ``x @ Wx + b`` is one matmul ahead of the scan.  The backward
    pass does backpropagation through time in one reversed scan inside the
    node's vector-Jacobian products.
    """
    xv = x.value
    if xv.ndim != 2:
        raise ValueError("bilstm_batch expects packed (rows, d) inputs")
    lengths = [int(k) for k in lengths]
    steps, shortest = max(lengths, default=0), min(lengths, default=0)
    if shortest < 1:
        raise ValueError("cannot encode an empty batch or an empty sequence")
    if sum(lengths) != xv.shape[0]:
        raise ValueError(f"lengths sum to {sum(lengths)}, not to the {xv.shape[0]} input rows")
    batch, width = len(lengths), xv.shape[1]
    n = forward[1].value.shape[0] // 4
    # ``rows`` is each packed row's place in the step-major (T * B) layout of
    # the sequences padded to T steps; a batch of one is already in it.
    # From the scan on, index s of every array is scan slot s, and the axis
    # after it is the direction (0 forward, 1 backward).
    rows = slice(None)
    valid = None  # (T, 2, B) mask of real steps; None when nothing is padded
    keep = None  # (T, 2, B, 1): True where a padded step keeps its state
    ragged = [False] * steps  # slots where some sequence is padding
    if batch > 1:
        real = np.arange(steps) < np.array(lengths)[:, None]  # (B, T)
        rows = np.arange(steps * batch).reshape(steps, batch).T[real]
        if shortest < steps:
            valid = np.stack((real.T, real.T[::-1]), axis=1)
            keep = ~valid[..., None]
            ragged = [s >= shortest or s <= steps - 1 - shortest for s in range(steps)]

    def step_major(a):  # packed rows as (T * B, width), zero past each length
        if batch == 1:
            return a
        out = np.zeros((steps * batch, a.shape[1]))
        out[rows] = a
        return out

    acts = np.empty((steps, 2, batch, 4 * n))  # sigmoid i, f, o then tanh g
    # Halving the i/f/o pre-activations turns sigmoid into 0.5 + 0.5 tanh(z/2),
    # so one tanh call covers all four gates.  Halving is exact in floating
    # point, so halving a product or a sum has the bits of halving its terms.
    # the backward pass reads the weights again: they change only after it
    weights = (forward[0].value, backward_params[0].value)
    xt = step_major(xv)
    for d, (weight, bias) in enumerate((forward, backward_params)):
        z = xt @ weight.value[:width]
        z += bias.value
        z[:, : 3 * n] *= 0.5
        z = z.reshape(steps, batch, 4 * n)
        acts[:, d] = z[::-1] if d else z  # the input projection, in slot order
    wh = np.stack([w[width:] for w in weights])
    wh[..., : 3 * n] *= 0.5

    # index s + 1 holds the state scan slot s ends with, and index 0 the zero
    # state the scan starts from, so the states entering the slots are views
    cells = np.empty((steps + 1, 2, batch, n))
    hidden = np.empty((steps + 1, 2, batch, n))
    cells[0] = hidden[0] = 0.0
    for s in range(steps):
        h, c = hidden[s], cells[s]
        a = acts[s]
        a += h @ wh
        np.tanh(a, out=a)
        sig = a[..., : 3 * n]
        sig *= 0.5
        sig += 0.5
        c_next = np.multiply(a[..., n : 2 * n], c, out=cells[s + 1])
        c_next += a[..., :n] * a[..., 3 * n :]
        h_next = np.tanh(c_next, out=hidden[s + 1])
        h_next *= a[..., 2 * n : 3 * n]
        if ragged[s]:  # padded sequences keep their state
            np.copyto(c_next, c, where=keep[s])
            np.copyto(h_next, h, where=keep[s])

    cache: list = []

    def grads(g):
        if cache and cache[0] is g:
            return cache[1]
        gt = step_major(g).reshape(steps, batch, 2 * n)
        gs = np.empty((steps, 2, batch, n))  # the output gradient in slot order
        gs[:, 0] = gt[..., :n]
        gs[:, 1] = gt[::-1, :, n:]
        h_prev, c_prev = hidden[:-1], cells[:-1]  # the states entering each slot
        i, f, o = acts[..., :n], acts[..., n : 2 * n], acts[..., 2 * n : 3 * n]
        gg = acts[..., 3 * n :]
        tc = np.tanh(cells[1:])
        out_gain = o * (1.0 - tc * tc)
        gate_gain = np.concatenate(
            (gg * i * (1.0 - i), c_prev * f * (1.0 - f),
             tc * o * (1.0 - o), i * (1.0 - gg * gg)),
            axis=-1,
        )
        if valid is not None:
            # A padded step copies the state: zero gate gains keep dz at zero,
            # a zero output gain keeps the hidden-state gradient out of the
            # cell, and that gradient passes on through ``keep`` below.  No
            # cell gradient reaches a padded step, so ``f`` needs no mask.
            pad = keep[..., 0]
            out_gain[pad] = 0.0
            gate_gain[pad] = 0.0
        wh_t = np.stack([w[width:] for w in weights]).transpose(0, 2, 1).copy()
        dz = np.empty_like(acts)
        dh = np.zeros((2, batch, n))
        dc = dh
        for s in range(steps - 1, -1, -1):
            dh = dh + gs[s]
            dcn = dh * out_gain[s]
            dcn += dc
            np.multiply(np.concatenate((dcn, dcn, dh, dcn), axis=-1), gate_gain[s], out=dz[s])
            dc = dcn * f[s]
            if ragged[s]:
                dh = dz[s] @ wh_t + dh * keep[s]
            else:
                dh = dz[s] @ wh_t
        # Each direction's input and weight gradients in its own time order,
        # from C-contiguous operands of a one-direction node's shapes (BLAS
        # and numpy's sums pick their summation order by shape and strides),
        # so they keep that node's bits.
        dx, dw, db = [], [], []
        for d, order in ((0, slice(None)), (1, slice(None, None, -1))):
            dz2 = np.ascontiguousarray(dz[order, d]).reshape(steps * batch, 4 * n)
            h_in = np.ascontiguousarray(h_prev[order, d]).reshape(steps * batch, n)
            dx.append(dz2 @ weights[d][:width].T.copy())
            dw.append(np.empty((width + n, 4 * n)))
            np.matmul(xt.T, dz2, out=dw[d][:width])
            np.matmul(h_in.T, dz2, out=dw[d][width:])
            db.append(dz2.sum(axis=0))
        dx = dx[0] + dx[1]
        cache[:] = [g, (dx[rows], dw[0], db[0], dw[1], db[1])]
        return cache[1]

    def vjp(k):
        return lambda g, acc: np.add(acc, grads(g)[k], out=acc)

    out = np.empty((steps, batch, 2 * n))
    out[..., :n] = hidden[1:, 0]
    out[..., n:] = hidden[:0:-1, 1]
    states = Tensor(out.reshape(steps * batch, 2 * n)[rows], (x, *forward, *backward_params),
                    tuple(vjp(k) for k in range(5)))
    # a padded step carries its sequence's state, so the forward half at step
    # T - 1 is each sequence's last state
    final = np.concatenate((out[-1, :, :n], out[0, :, n:]), axis=1)
    return states, _final_states(states, final, lengths)


def _final_states(states: Tensor, value: np.ndarray, lengths: list[int]) -> Tensor:
    """``value``, the [fwd at the last step; bwd at step 0] state of each
    sequence, as a node over the packed ``states``: its gradient goes to each
    sequence's last row (forward half) and first row (backward half)."""
    n = value.shape[1] // 2

    def vjp(g, acc):
        ends = np.cumsum(lengths)
        first = ends - lengths
        acc[ends - 1, :n] += g[:, :n]
        acc[first, n:] += g[:, n:]

    return Tensor(value, (states,), (vjp,))


class Adam:
    """Adam with global gradient-norm clipping, applied in place.

    It runs over the store's flat buffers: the moments are two flat arrays,
    and two preallocated scratch arrays hold every temporary, so a step
    allocates nothing the size of the store.  The arithmetic is the
    per-tensor expression in its order of operations, so the update has its
    bits.  Parameters added to the store after the optimizer are not
    supported.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, store: ParameterStore, lr=1e-3, clip_norm=5.0):
        self.store = store
        self.lr = lr
        self.clip_norm = clip_norm
        self.t = 0
        size = store.n_values()
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self) -> float:
        """One update; returns the gradient norm before clipping."""
        self.t += 1
        a, b = self._scratch
        norm = self.store.grad_norm(a)
        factor = 1.0
        if norm > self.clip_norm:
            factor = self.clip_norm / norm
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        m, v, values = self._m, self._v, self.store.values
        g = self.store.grads if factor == 1.0 else np.multiply(self.store.grads, factor, out=a)
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=b)
        v *= self.beta2
        g2 = np.multiply(g, 1.0 - self.beta2, out=b)
        g2 *= g
        v += g2
        # lr * (m / b1c) / (sqrt(v / b2c) + eps)
        denom = np.divide(v, b2c, out=a)
        np.sqrt(denom, out=denom)
        denom += self.eps
        update = np.divide(m, b1c, out=b)
        update *= self.lr
        update /= denom
        values -= update
        return norm


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
