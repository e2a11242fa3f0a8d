"""The LSTM paths that ``diffcore.bilstm_batch`` is tested against.

The per-step path: each time step is one tape node whose parents are the step
input, the state it starts from, and the direction's (weight, bias) pair from
``diffcore.init_lstm_params``.  Backpropagation through time is left to the
tape, so it shares no backward code with the fused nodes.

The per-direction path: ``lstm_sequence`` runs one direction over a padded
batch as one tape node, and ``bilstm_pair`` pairs two of them up.  The pair
is the bitwise reference for ``bilstm_batch``, which runs both directions in
one scan over packed rows: its states are the pair's at the real steps, in
packed order.  ``lstm_sequence`` is itself checked against the per-step
path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from polyscale import diffcore as dc
from polyscale.diffcore import Tensor
from reference_ops import _stable_sigmoid, concat, node, row


def lstm_step(
    x: Tensor, h: Tensor, c: Tensor, params: tuple[Tensor, Tensor]
) -> tuple[Tensor, Tensor]:
    """One LSTM step as a single tape node; returns (h_next, c_next).

    All four gate pre-activations come from one matmul against the weight's
    input rows and one against its recurrent rows.  The node's value stacks
    h_next over c_next; callers get row views of it.
    """
    weight, bias = params
    xv, hv, cv = x.value, h.value, c.value
    width = xv.shape[0]
    n = hv.shape[0]
    wx, wh = weight.value[:width], weight.value[width:]
    z = xv @ wx + hv @ wh + bias.value
    gates = _stable_sigmoid(z[: 3 * n])
    i, f, o = gates[:n], gates[n : 2 * n], gates[2 * n :]
    g = np.tanh(z[3 * n :])
    c_next = f * cv + i * g
    tc = np.tanh(c_next)
    out = np.stack((o * tc, c_next))

    # Shared backward intermediates are memoized per backward pass; the tape
    # is rebuilt for every forward pass, so the cache never goes stale.
    cache: list[tuple] = []

    def deltas(grad):
        if not cache:
            d_cell = grad[0] * o * (1.0 - tc * tc) + grad[1]
            dz = np.empty_like(z)
            dz[:n] = d_cell * g * i * (1.0 - i)
            dz[n : 2 * n] = d_cell * cv * f * (1.0 - f)
            dz[2 * n : 3 * n] = grad[0] * tc * o * (1.0 - o)
            dz[3 * n :] = d_cell * i * (1.0 - g * g)
            cache.append((d_cell, dz))
        return cache[0]

    def vjp_x(grad, acc):
        np.add(acc, wx @ deltas(grad)[1], out=acc)

    def vjp_h(grad, acc):
        np.add(acc, wh @ deltas(grad)[1], out=acc)

    def vjp_c(grad, acc):
        np.add(acc, deltas(grad)[0] * f, out=acc)

    def vjp_weight(grad, acc):
        dz = deltas(grad)[1]
        acc[:width] += np.outer(xv, dz)
        acc[width:] += np.outer(hv, dz)

    def vjp_bias(grad, acc):
        np.add(acc, deltas(grad)[1], out=acc)

    step = node(out, (x, h, c, weight, bias), (vjp_x, vjp_h, vjp_c, vjp_weight, vjp_bias))
    return row(step, 0), row(step, 1)


def lstm_encode(
    seq: Sequence[Tensor], params: tuple[Tensor, Tensor], reverse: bool = False
) -> list[Tensor]:
    """Hidden states in input order; ``reverse`` runs the scan right to left."""
    if not seq:
        raise ValueError("cannot encode an empty sequence")
    hidden = params[1].value.shape[0] // 4
    h = dc.constant(np.zeros(hidden))
    c = dc.constant(np.zeros(hidden))
    states: list[Tensor] = []
    indices = range(len(seq) - 1, -1, -1) if reverse else range(len(seq))
    for t in indices:
        h, c = lstm_step(seq[t], h, c, params)
        states.append(h)
    if reverse:
        states.reverse()
    return states


def bilstm_encode(
    seq: Sequence[Tensor], forward: tuple[Tensor, Tensor], backward_params: tuple[Tensor, Tensor]
) -> tuple[list[Tensor], Tensor]:
    """Per-step [fwd; bwd] states plus the final [last fwd; last bwd] state.

    The backward direction's "last" state is the one produced at the first
    input position, i.e. after it has consumed the whole sequence.
    """
    fwd = lstm_encode(seq, forward)
    bwd = lstm_encode(seq, backward_params, reverse=True)
    steps = [concat([f, b]) for f, b in zip(fwd, bwd)]
    final = concat([fwd[-1], bwd[0]])
    return steps, final


def lstm_sequence(
    x: Tensor, params: tuple[Tensor, Tensor], lengths=None, reverse: bool = False
) -> Tensor:
    """Hidden states of a padded batch of sequences, as one tape node.

    ``x`` is (B, T, d) for B sequences padded to T steps; ``lengths`` gives
    each sequence's true length (all T when omitted).  ``params`` is the (weight, bias) pair that
    ``init_lstm_params`` makes: rows ``Wx`` over rows ``Wh``, gate blocks in
    i/f/o/c order.  The input projection ``x @ Wx + b`` runs for every step
    in one matmul ahead of the recurrence, and the recurrence itself runs in
    numpy.  A padded step carries its sequence's state unchanged, so the
    result, (B, T, n), holds each sequence's last state at step T - 1 and,
    with ``reverse``, at step 0.  The backward pass does
    backpropagation through time inside one vector-Jacobian product.
    """
    xb = x.value
    if xb.ndim != 3:
        raise ValueError("lstm_sequence expects (B, T, d) inputs")
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
        gt = g.transpose(1, 0, 2)
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
        cache[:] = [g, (dx, dw, dz2.sum(axis=0))]
        return cache[1]

    def vjp(k):
        return lambda g, acc: np.add(acc, grads(g)[k], out=acc)

    return node(hidden.transpose(1, 0, 2), (x, weight, bias), (vjp(0), vjp(1), vjp(2)))


def _last_states(fwd: Tensor, bwd: Tensor) -> Tensor:
    """[fwd at the last step; bwd at step 0] per sequence, as one node."""
    fv, bv = fwd.value, bwd.value
    n = fv.shape[-1]

    def vjp_fwd(g, acc):
        acc[..., -1, :] += g[..., :n]

    def vjp_bwd(g, acc):
        acc[..., 0, :] += g[..., n:]

    out = np.concatenate((fv[..., -1, :], bv[..., 0, :]), axis=-1)
    return node(out, (fwd, bwd), (vjp_fwd, vjp_bwd))


def bilstm_pair(
    x: Tensor, forward: tuple[Tensor, Tensor], backward_params: tuple[Tensor, Tensor],
    lengths=None,
) -> tuple[Tensor, Tensor]:
    """``diffcore.bilstm_batch`` over a padded (B, T, d) batch, as one
    ``lstm_sequence`` node per direction.

    Returns the per-step [fwd; bwd] states, (B, T, 2n), and the final
    [last fwd; last bwd] state per sequence, (B, 2n): the backward
    direction's last state is the one at step 0, after it has consumed the
    whole sequence.  For a padded sequence the per-step states past its
    length are filler.
    """
    fwd = lstm_sequence(x, forward, lengths)
    bwd = lstm_sequence(x, backward_params, lengths, reverse=True)
    return concat([fwd, bwd]), _last_states(fwd, bwd)
