"""The per-step LSTM path: the reference that ``diffcore.lstm_sequence`` is
tested against.

Each time step is one tape node whose parents are the step input, the state
it starts from, and the direction's (weight, bias) pair from
``diffcore.init_lstm_params``.  Backpropagation through time is left to the
tape, so it shares no backward code with the fused sequence node.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from polyscale import diffcore as dc
from polyscale.diffcore import Tensor
from reference_ops import _stable_sigmoid, row


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

    node = Tensor(out, (x, h, c, weight, bias), (vjp_x, vjp_h, vjp_c, vjp_weight, vjp_bias))
    return row(node, 0), row(node, 1)


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
    steps = [dc.concat([f, b]) for f, b in zip(fwd, bwd)]
    final = dc.concat([fwd[-1], bwd[0]])
    return steps, final
