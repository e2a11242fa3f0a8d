"""Reverse-mode automatic differentiation over a small fixed op vocabulary.

Everything is float64 numpy.  A ``Tensor`` wraps a value plus one
vector-Jacobian product that adds into all of its parents' gradients, so a
forward pass builds the tape and ``backward`` calls it once per node.  Ops:
``constant``, batched row lookup (``gather``) and the bidirectional LSTM
below.  A model adds its own larger nodes by building ``Tensor`` directly:
``hiermodel``'s heads and losses of a document are one node.  The
elementwise, pooling, softmax, ``dense`` and ``reshape`` ops that the tests
compose into reference paths live in ``tests/reference_ops.py``.

An LSTM direction is two parameters (``init_lstm_params``): one
(in + hidden, 4 * hidden) weight holding the input and recurrent rows of all
four gates, and one 4 * hidden bias.  A bidirectional layer runs as one tape
node per batch of sequences (``bilstm_batch``) whose parents are the input
and both directions' weight and bias.  Sequences go in as packed rows, one
sequence after another, and the node returns either the per-step states,
packed the same way, or only each sequence's final state.  A
``ScanLayout``, built once per batch from the lengths, places each packed
row in the node's padded scan, where padding trails every sequence in both
directions.  Both directions' input projections are one stacked matmul;
the two recurrences run in one numpy scan over stacked (2, batch, hidden)
states, and backpropagation through time runs in one reversed scan inside
the node's vector-Jacobian product.  The scan keeps its gate
pre-activations gate-major, so each gate of a step is one contiguous
(2, batch, hidden) block for the elementwise ops.  The per-direction and
per-step reference paths live in the tests (``tests/reference_lstm.py``).

``ParameterStore`` keeps every parameter value in one flat buffer and every
gradient in another; each tensor's arrays are views of its segment.
``Adam`` updates the whole buffer with a fixed number of in-place calls.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np


class Tensor:
    """A tape node: value, optional gradient, parents and one vector-Jacobian
    product.

    ``vjp(g, grads)`` gets the node's gradient ``g`` and its parents'
    gradient arrays in parent order, None for a parent that needs no
    gradient, and adds each parent's contribution in place.  A parent listed
    twice gets the same array in both slots.  Leaves have no parents and no
    ``vjp``.
    """

    __slots__ = ("value", "grad", "parents", "vjp", "requires_grad")

    def __init__(self, value, parents=(), vjp=None, requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.vjp = vjp
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)


def constant(value) -> Tensor:
    return Tensor(value)


def backward(root: Tensor) -> None:
    """Accumulate dL/dp into every reachable parameter, L being ``root``.

    ``root`` must be a scalar.  Each node with parents gets one ``vjp``
    call, and leaves are not walked.  Intermediate gradients are freed as
    soon as they have been propagated; leaf gradients accumulate (callers
    zero them).
    """
    if root.value.shape != ():
        raise ValueError(f"backward root must be a scalar, got shape {root.value.shape}")
    if root.grad is None:
        root.grad = np.ones(())
    else:  # a parameter: add to its slot of the store's gradient buffer
        root.grad += 1.0
    if not root.parents:
        return
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
            if parent.parents and parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    for node in reversed(order):
        for parent in node.parents:
            if parent.requires_grad and parent.grad is None:
                parent.grad = np.zeros_like(parent.value)
        node.vjp(node.grad, [p.grad if p.requires_grad else None for p in node.parents])
        node.grad = None


def gather(matrix: Tensor, ids) -> Tensor:
    """Batched row lookup: ``matrix[ids]`` for an integer array ``ids``."""
    if matrix.value.ndim != 2:
        raise ValueError("gather expects a 2-D tensor")
    ids = np.asarray(ids, dtype=np.intp)
    width = matrix.value.shape[1]
    flat = ids.reshape(-1)

    def vjp(g, grads):
        np.add.at(grads[0], flat, g.reshape(-1, width))

    return Tensor(matrix.value[ids], (matrix,), vjp)


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

    def segments(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of each tensor's segment of ``flat``, one slot per value, in
        store order."""
        return [flat[lo:hi] for lo, hi in self._bounds]


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


class ScanLayout:
    """Where ``bilstm_batch`` puts a batch of sequences, built once from
    their lengths and passed in with the batch.

    The B sequences are padded to the longest, T steps, and padding trails
    every sequence in both directions: slot s of the scan holds forward step
    s and backward step len - 1 - s, so a sequence ends at its ``last`` slot,
    len - 1.  ``rows`` is each packed row's place in the step-major (T * B)
    layout of that padding (a whole slice for a batch of one).  ``mirror``
    indexes a (T, B, ...) array to put each sequence's step len - 1 - t at
    t, and a padded step at itself.  It is its own inverse, so it takes the
    backward direction from step order to slot order and back; for a batch
    of one it is a reversing slice.
    """

    __slots__ = ("size", "batch", "steps", "rows", "mirror", "last")

    def __init__(self, lengths):
        lengths = np.array([int(k) for k in lengths], dtype=np.intp)
        if not lengths.size or lengths.min() < 1:
            raise ValueError("cannot encode an empty batch or an empty sequence")
        steps = int(lengths.max())
        self.size, self.batch, self.steps = int(lengths.sum()), len(lengths), steps
        self.last = lengths - 1
        self.rows, self.mirror = slice(None), (slice(None, None, -1),)
        if self.batch > 1:
            t = np.arange(steps)[:, None]
            real = t < lengths  # (T, B)
            self.rows = (t * self.batch + np.arange(self.batch)).T[real.T]
            self.mirror = (np.where(real, self.last - t, t), np.arange(self.batch))


def bilstm_batch(
    x: Tensor, forward: tuple[Tensor, Tensor], backward_params: tuple[Tensor, Tensor],
    layout: ScanLayout, final_only: bool = False,
) -> Tensor:
    """Both directions of a bidirectional LSTM over a batch of sequences, as
    one node whose parents are ``x`` and the four parameters.

    ``x`` is packed: (sum of the lengths, d), the rows of one sequence after
    another, each in step order, and ``layout`` is the ``ScanLayout`` of
    those lengths.  ``forward`` and ``backward_params`` are (weight, bias)
    pairs that ``init_lstm_params`` makes: rows ``Wx`` over rows ``Wh``, gate
    blocks in i/f/o/c order.  Returns the per-step [fwd; bwd] states, packed
    like ``x`` as (sum of the lengths, 2n), or with ``final_only`` only the
    final [last fwd; last bwd] state per sequence, (B, 2n).

    Inside, the node scans the layout's slots: every state array is
    (2, B, n), and the recurrent products of both directions are one stacked
    matmul.  A slot's gate pre-activations are (4, 2, B, n), gate-major, so
    the activations and the cell and state updates run on whole gate blocks;
    the products keep their gate-last operands and are added or read
    through transposed views, so the layout moves no bits.  Padding trails
    every sequence in both directions, so a final-only node's gradient
    enters the scan at each sequence's last slot,
    and the padded slots, which run on zero inputs, get no gradient.  The
    input projections ``x @ Wx + b`` of both directions are one stacked
    matmul ahead of the scan.  The backward pass does backpropagation
    through time in one reversed scan inside the node's vector-Jacobian
    product.
    """
    xv = x.value
    if xv.ndim != 2:
        raise ValueError("bilstm_batch expects packed (rows, d) inputs")
    if layout.size != xv.shape[0]:
        raise ValueError(f"lengths sum to {layout.size}, not to the {xv.shape[0]} input rows")
    batch, steps, rows, mirror = layout.batch, layout.steps, layout.rows, layout.mirror
    width = xv.shape[1]
    n = forward[1].value.shape[0] // 4
    # From the scan on, index s of every array is scan slot s, and the axis
    # after it is the direction (0 forward, 1 backward).

    def step_major(a):  # packed rows as (T * B, width), zero past each length
        if batch == 1:
            return a
        out = np.zeros((steps * batch, a.shape[1]))
        out[rows] = a
        return out

    xt = step_major(xv)

    # Halving the i/f/o pre-activations turns sigmoid into 0.5 + 0.5 tanh(z/2),
    # so one tanh call covers all four gates.  Halving is exact in floating
    # point, so a product or a sum of halved terms has the bits of the halved
    # product or sum.  ``wb`` holds each direction's halved weight rows over
    # its halved bias.
    wb = np.empty((2, width + n + 1, 4 * n))
    for d, (weight, bias) in enumerate((forward, backward_params)):
        wb[d, :-1] = weight.value
        wb[d, -1] = bias.value
    wb[..., : 3 * n] *= 0.5
    wh = wb[:, width:-1]
    proj = np.matmul(xt, wb[:, :width])
    proj += wb[:, -1:]
    proj = proj.reshape(2, steps, batch, 4, n)
    # gate-major: acts[s, k] is gate k's (2, B, n) block of slot s, sigmoid
    # i, f, o then tanh g, so every elementwise op below reads whole blocks
    acts = np.empty((steps, 4, 2, batch, n))
    acts[:, :, 0] = proj[0].transpose(0, 2, 1, 3)
    acts[:, :, 1] = proj[1][mirror].transpose(0, 2, 1, 3)  # in slot order

    # index s + 1 holds the state scan slot s ends with, and index 0 the zero
    # state the scan starts from, so the states entering the slots are views
    cells = np.empty((steps + 1, 2, batch, n))
    hidden = np.empty((steps + 1, 2, batch, n))
    cells[0] = hidden[0] = 0.0
    tanh_cells = np.empty((steps, 2, batch, n))  # tanh of each slot's cell, for the gradient
    for s in range(steps):
        a = acts[s]
        a += (hidden[s] @ wh).reshape(2, batch, 4, n).transpose(2, 0, 1, 3)
        np.tanh(a, out=a)
        sig = a[:3]
        sig *= 0.5
        sig += 0.5
        c_next = np.multiply(a[1], cells[s], out=cells[s + 1])
        c_next += a[0] * a[3]
        np.multiply(np.tanh(c_next, out=tanh_cells[s]), a[2], out=hidden[s + 1])

    def vjp(g, grads):
        gs = np.zeros((steps, 2, batch, n))  # the output gradient in slot order
        if final_only:  # each sequence's final state, at its last slot
            gs[layout.last, :, np.arange(batch)] = g.reshape(batch, 2, n)
        else:
            gt = step_major(g).reshape(steps, batch, 2 * n)
            gs[:, 0] = gt[..., :n]
            gs[:, 1] = gt[..., n:][mirror]
        sig, f, o, gg = acts[:, :3], acts[:, 1], acts[:, 2], acts[:, 3]
        tc = tanh_cells
        out_gain = o * (1.0 - tc * tc)
        # gate gains, gate-last like the gradient they scale below and written
        # through a gate-major view; i, f and o: (g, c entering the slot,
        # tanh c) * s * (1 - s)
        gate_gain = np.empty((steps, 2, batch, 4 * n))
        gains = gate_gain.reshape(steps, 2, batch, 4, n).transpose(0, 3, 1, 2, 4)
        gains[:, 0], gains[:, 1], gains[:, 2] = gg, cells[:-1], tc
        ifo = gains[:, :3]
        ifo *= sig
        ifo *= 1.0 - sig
        np.multiply(acts[:, 0], 1.0 - gg * gg, out=gains[:, 3])
        # the unhalved weights of both directions, transposed, as C-contiguous
        # input and recurrent blocks
        w = np.stack((forward[0].value, backward_params[0].value))
        wx_t = w[:, :width].transpose(0, 2, 1).copy()
        wh_t = w[:, width:].transpose(0, 2, 1).copy()
        dz = np.empty((steps, 2, batch, 4 * n))
        dc = dh = np.zeros((2, batch, n))
        for s in range(steps - 1, -1, -1):
            dh = dh + gs[s]
            dcn = dh * out_gain[s]
            dcn += dc
            np.multiply(np.concatenate((dcn, dcn, dh, dcn), axis=-1), gate_gain[s], out=dz[s])
            dc = dcn * f[s]
            dh = dz[s] @ wh_t
        # Each direction's input and weight gradients in its own time order,
        # stacked, from C-contiguous operands of a one-direction node's shapes
        # (BLAS and numpy's sums pick their summation order by shape and
        # strides), so they keep that node's bits.
        dz_t = np.empty((2, steps, batch, 4 * n))
        h_t = np.empty((2, steps, batch, n))  # the state entering each step
        dz_t[0], dz_t[1] = dz[:, 0], dz[:, 1][mirror]
        h_t[0], h_t[1] = hidden[:-1, 0], hidden[:-1, 1][mirror]
        dz_t = dz_t.reshape(2, steps * batch, 4 * n)
        dx = np.matmul(dz_t, wx_t)
        dw = np.empty((2, width + n, 4 * n))
        np.matmul(xt.T, dz_t, out=dw[:, :width])
        np.matmul(h_t.reshape(2, steps * batch, n).transpose(0, 2, 1), dz_t, out=dw[:, width:])
        db = dz_t.sum(axis=1)
        dx = dx[0] + dx[1]
        for acc, d in zip(grads, (dx[rows], dw[0], db[0], dw[1], db[1])):
            if acc is not None:
                np.add(acc, d, out=acc)

    if final_only:
        out = hidden[layout.last + 1, :, np.arange(batch)].reshape(batch, 2 * n)
    else:
        out = np.empty((steps, batch, 2 * n))
        out[..., :n] = hidden[1:, 0]
        out[..., n:] = hidden[1:, 1][mirror]
        out = out.reshape(steps * batch, 2 * n)[rows]
    return Tensor(out, (x, *forward, *backward_params), vjp)


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
        self._squares = store.segments(self._scratch[0])

    def step(self) -> float:
        """One update; returns the gradient norm before clipping."""
        self.t += 1
        a, b = self._scratch
        # each tensor's squares summed on their own, in store order: the bits
        # of a sum over per-tensor sums
        np.multiply(self.store.grads, self.store.grads, out=a)
        norm = math.sqrt(sum(map(np.add.reduce, self._squares)))
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
