"""Tie-averaged ranks by a loop over the sorted order: the reference for
``evaluation.average_ranks``, which finds the tie groups with array masks."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def loop_average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks with ties sharing their average rank, group by group."""
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr), dtype=np.float64)
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks
