"""The monotone MAP descent the solver used before FISTA: an energy oracle.

It runs backtracking projected gradient descent on each smoothing level,
over the network's own rows, unmerged, and computes each smoothed energy and
gradient from the assignment again, straight from the compiled arrays.  It
shares the smoothing schedule and the stopping rule with ``map_inference``
but neither its rows nor its steps, so the two agree on the energy they
reach, not bit for bit.  Tests require the solver to converge wherever this
loop does, and to end no more than a relative 1e-9 above this loop's energy
on the networks they draw.  That margin holds there, but it is not a bound
on every network: both loops stop near the optimum of the last smoothed
energy (mu = 1e-8), whose exact energy can lie above the true minimum by up
to mu/2 per linear row, and which of the two lands lower depends on its
path.  Over wider draws a few solves end up to 3e-9 (relative) above it.
"""

from __future__ import annotations

import numpy as np

from polyscale.pslengine import GroundNetwork, SolverConfig


def _linear(comp, x):
    if len(comp.entry_rule):
        sums = np.bincount(comp.entry_rule, weights=comp.entry_coef * x[comp.entry_free],
                           minlength=len(comp.consts))
    else:
        sums = np.zeros(len(comp.consts))
    return comp.consts + sums


def _energy(comp, x):
    d = np.maximum(_linear(comp, x), 0.0)
    return float(np.sum(comp.weights * np.where(comp.rhos == 1, d, d * d)))


def _smoothed_energy(comp, x, mu):
    u = _linear(comp, x)
    d = np.maximum(u, 0.0)
    huber = np.where(u <= mu, d * d / (2.0 * mu), u - mu / 2.0)
    return float(np.sum(comp.weights * np.where(comp.rhos == 1, huber, d * d)))


def _smoothed_gradient(comp, x, mu):
    d = np.maximum(_linear(comp, x), 0.0)
    slope = np.where(comp.rhos == 1, comp.weights * np.minimum(d / mu, 1.0),
                     2.0 * comp.weights * d)
    if not len(comp.entry_rule):
        return np.zeros(comp.n_free)
    return np.bincount(comp.entry_free, weights=comp.entry_coef * slope[comp.entry_rule],
                       minlength=comp.n_free)


def reference_map(network: GroundNetwork, config: SolverConfig | None = None):
    """(values, energy, iterations, converged) from the network's initial values."""
    config = config or SolverConfig()
    x = np.clip(network.initial.copy(), 0.0, 1.0)
    if len(network.free_atoms) == 0 or len(network) == 0:
        return x, network.energy(x), 0, True

    levels = []
    mu = config.smoothing_initial
    while mu > config.smoothing_final * (1.0 + 1e-9):  # no near copy of the final level
        levels.append(mu)
        mu *= config.smoothing_decay
    levels.append(config.smoothing_final)

    comp = network.compiled
    best_x, best_f = x.copy(), _energy(comp, x)
    iterations = 0
    converged = True
    for mu in levels:
        f = _smoothed_energy(comp, x, mu)
        step = config.initial_step
        stall_count = 0
        while True:
            if iterations >= config.max_iterations:
                converged = False
                break
            g = _smoothed_gradient(comp, x, mu)
            iterations += 1
            if float(np.linalg.norm(g)) == 0.0:
                break
            s = step
            accepted = False
            for _ in range(40):
                xn = np.clip(x - s * g, 0.0, 1.0)
                if not np.any(xn != x):
                    break
                fn = _smoothed_energy(comp, xn, mu)
                if fn < f - 1e-15:
                    accepted = True
                    break
                s *= 0.5
            if not accepted:
                break
            delta = f - fn
            x, f = xn, fn
            step = min(s * 2.0, 4.0)
            if delta < config.tolerance:
                stall_count += 1
                if stall_count >= 3:
                    break
            else:
                stall_count = 0
        exact = _energy(comp, x)
        if exact < best_f:
            best_f, best_x = exact, x.copy()
        if not converged:
            break
    return best_x, best_f, iterations, converged
