"""The minimising skyline: the one dominance prune behind every front.

A row *dominates* another when it is ``<=`` on every objective and
``<`` on at least one.  :func:`skyline` keeps the rows no other row
dominates and, among rows that are exact duplicates of each other, only
the first — so its survivors are exactly the generic O(n^2)
:func:`repro.dse.pareto.pareto_front`'s minus later exact duplicates.
Window fronts (:class:`~repro.core.sweep.NetworkLattice`), array fronts
(:func:`~repro.dse.pareto.array_pareto`), chip fronts
(:func:`~repro.dse.pareto.chip_pareto`) and the window landscape front
(:func:`~repro.dse.pareto.window_pareto`, which re-admits the dropped
duplicates) all prune through it.

The scan visits rows in lexicographic order (a stable ``np.lexsort``,
so duplicates keep index order).  A row can only be dominated by a row
lexicographically before it, and every earlier row is already ``<=``
on the first objective, so a candidate is dominated (or duplicated)
iff some earlier *kept* row is ``<=`` on the remaining two.  Kept rows
form a staircase over those two — increasing in one, decreasing in the
other — that one bisect probes: O(N log N) time, O(N) memory.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

__all__ = ["skyline"]


def skyline(values: np.ndarray) -> np.ndarray:
    """Ascending indices of the minimising front of ``(N, 2)`` or
    ``(N, 3)`` int or float objective rows; of exact duplicates only
    the first index survives.

    >>> skyline(np.array([[1, 5], [2, 2], [3, 3], [2, 2]])).tolist()
    [0, 1]
    >>> skyline(np.array([[1, 1, 2], [1, 2, 1], [2, 2, 2]])).tolist()
    [0, 1]
    """
    rows = np.asarray(values)
    if rows.ndim != 2 or rows.shape[1] not in (2, 3):
        raise ValueError(f"skyline needs (N, 2) or (N, 3) rows, "
                         f"got shape {rows.shape}")
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    seconds = ranked[:, 1].tolist()
    # Two objectives: a constant third keeps the staircase one entry.
    thirds = ranked[:, 2].tolist() if rows.shape[1] == 3 \
        else [0] * len(seconds)
    keep = []
    stair_second: list = []  # strictly increasing
    stair_third: list = []   # strictly decreasing
    for index, second, third in zip(order.tolist(), seconds, thirds):
        pos = bisect_right(stair_second, second)
        if pos and stair_third[pos - 1] <= third:
            continue  # dominated, or a later exact duplicate
        keep.append(index)
        # Entries the new row covers stay kept but stop being
        # witnesses: the new row dominates-or-equals each of them.
        lo = hi = bisect_left(stair_second, second)
        while hi < len(stair_second) and stair_third[hi] >= third:
            hi += 1
        stair_second[lo:hi] = [second]
        stair_third[lo:hi] = [third]
    keep.sort()
    return np.asarray(keep, dtype=np.int64)
