"""The MAP solver loop as it ran before hinge rows were reused: a test oracle.

Each smoothed energy and gradient here computes the hinge rows from the
assignment again, straight from the compiled arrays, so nothing is shared
with the solver in ``pslengine``.  The arithmetic is the solver's, operation
for operation, so its results must agree bit for bit.
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
