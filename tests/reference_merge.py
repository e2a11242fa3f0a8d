"""Table-built row merging: the reference for ``pslengine._Compiled.merged``.

``reference_merged`` is the merge ``map_inference`` ran before rows carried
their merge codes: it rebuilds a table of each row's exponent and sorted
(free atom, coefficient) codes from the entry arrays on every call, codes
the coefficients densely over the values present, and packs the table into
one key per row.  Tests compare the two merges array for array, bitwise.
"""

from __future__ import annotations

import numpy as np

from polyscale.pslengine import _Compiled, _joint_keys


def reference_merged(compiled: _Compiled) -> _Compiled:
    """``compiled`` with equal rows merged, from a table built on the spot."""
    n_rows = len(compiled.consts)
    counts = np.bincount(compiled.entry_rule, minlength=n_rows)
    coef_values, coef_codes = np.unique(compiled.entry_coef, return_inverse=True)
    # one row of the table per hinge row: its exponent, then its entries as
    # codes sorted within the row, padded with 0 (no code is 0)
    table = np.zeros((n_rows, 1 + (int(counts.max()) if n_rows else 0)), dtype=np.int64)
    table[:, 0] = compiled.rhos
    order = np.argsort(compiled.entry_rule, kind="stable")
    rows = compiled.entry_rule[order]
    slots = 1 + np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    table[rows, slots] = (compiled.entry_free * len(coef_values) + coef_codes + 1)[order]
    table[:, 1:].sort(axis=1)
    key, _ = _joint_keys(table, table[:0],
                         max(compiled.n_free * len(coef_values) + 1, 3))
    by_row = np.lexsort((compiled.consts, key))  # stable: a group's first row leads it
    key, consts = key[by_row], compiled.consts[by_row]
    starts = np.ones(n_rows, dtype=bool)
    starts[1:] = (key[1:] != key[:-1]) | (consts[1:] != consts[:-1])
    kept = by_row[starts]
    group = np.empty(n_rows, dtype=np.intp)
    group[by_row] = np.cumsum(starts) - 1
    is_kept = np.zeros(n_rows, dtype=bool)
    is_kept[kept] = True
    entries = is_kept[compiled.entry_rule]
    return _Compiled(
        compiled.consts[kept],
        np.bincount(group, weights=compiled.weights, minlength=len(kept)),
        compiled.rhos[kept],
        group[compiled.entry_rule[entries]],
        compiled.entry_free[entries],
        compiled.entry_coef[entries],
        compiled.n_free,
    )
