"""The hinge distance of one ground rule, walked literal by literal: a test
oracle for closed-form checks.

The solver scores rules through the compiled energy rows in ``pslengine``;
this reads a ``GroundRule`` directly, left to right, so its arithmetic can be
compared with a closed form bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from reference_grounder import GroundLiteral, GroundRule


def _effective(lit: GroundLiteral, values: np.ndarray) -> float:
    if lit.free_index is not None:
        v = float(values[lit.free_index])
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"assignment value {v} outside [0, 1]")
    else:
        v = lit.observed_value
    return 1.0 - v if lit.negated else v


def distance_to_satisfaction(rule: GroundRule, values: np.ndarray | Sequence[float]) -> float:
    """Hinge residual of one ground rule under an assignment to free atoms.

    Evaluated left to right as (sum of body truths) - head - (n - 1) so the
    result matches the closed-form arithmetic bit for bit.
    """
    values = np.asarray(values, dtype=np.float64)
    total = 0.0
    for lit in rule.body:
        total = total + _effective(lit, values)
    linear = total - _effective(rule.head, values) - (len(rule.body) - 1)
    return linear if linear > 0.0 else 0.0
