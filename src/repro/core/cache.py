"""The one LRU of the tree, and the freeze discipline for its values.

Every bounded memo in the stack is an :class:`LRUMemo`: the lattice
layer's geometry caches (layer grids, window fronts), the PIM plan
memo, the engine's solution memo and sweep memo, and the server's
response memo.  Each counts its hits, misses and evictions, so every
row of the cache inventory in ``docs/architecture.md`` reports the same
:meth:`LRUMemo.snapshot`.  Values must be immutable (or never mutated)
and never ``None``: a concurrent miss may compute the same value twice,
and either result is kept.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import (Callable, Dict, Generic, Hashable, Iterable, Optional,
                    TypeVar)

import numpy as np

__all__ = ["LRUMemo", "freeze_arrays"]


def freeze_arrays(*arrays: "np.ndarray") -> None:
    """Mark *arrays* read-only before they enter a cache.

    Cache-resident arrays are shared by every caller that hits the same
    key; ``writeable=False`` turns any in-place edit — which would
    silently corrupt all future hits — into an immediate
    ``ValueError`` at the mutation site.  The static half of the same
    contract is REP003 (``cached-array-mutation``) in
    :mod:`repro.analysis`.
    """
    for array in arrays:
        array.setflags(write=False)


def frozen_arrays(arrays: Iterable["np.ndarray"]) -> None:
    """:func:`freeze_arrays` over any iterable (for vector tables)."""
    freeze_arrays(*arrays)

V = TypeVar("V")


class LRUMemo(Generic[V]):
    """A thread-safe LRU map that counts hits, misses and evictions.

    Every :meth:`get` counts one hit or one miss; every entry a
    :meth:`put` pushes out counts one eviction.  ``maxsize <= 0``
    stores nothing, so every lookup misses.  :meth:`clear` drops the
    entries and keeps the counters.

    >>> memo = LRUMemo(maxsize=2)
    >>> memo.get_or_compute("a", lambda: 1)
    1
    >>> memo.get_or_compute("a", lambda: 1/0)   # served from the memo
    1
    >>> memo.snapshot()
    {'hits': 1, 'misses': 1, 'evictions': 0, 'size': 1}
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[Hashable, V]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[V]:
        """The value under *key*, now the most recently used, or
        ``None`` on a miss."""
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: V) -> None:
        """Store *value* under *key* as the most recently used entry,
        evicting the least recently used ones beyond ``maxsize``."""
        if self.maxsize <= 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def get_or_compute(self, key: Hashable, factory: Callable[[], V]) -> V:
        """The memoized value for *key*, computing via *factory* on miss.

        The factory runs outside the lock — slow computations never
        serialise readers; a racing duplicate computation is harmless
        for the pure values this memo holds.  A factory that raises
        stores nothing.
        """
        value = self.get(key)
        if value is None:
            value = factory()
            self.put(key, value)
        return value

    def snapshot(self) -> Dict[str, int]:
        """The counters plus the current ``size``, read atomically."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions, "size": len(self._data)}

    def clear(self) -> None:
        """Drop every entry; the counters keep accruing."""
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:  # noqa: D105 - obvious
        with self._lock:
            return len(self._data)
