"""Inverse design questions: what hardware does a workload need?

The paper answers "given an array, how fast is the layer"; deployment
asks the inverse: *how big an array* (or *how many arrays*) achieves a
latency target.  Both answers come from the engine's shared lattices,
never from per-probe re-solving or re-planning:

* the array size is bisected, exactly, because cycle counts are
  monotone non-increasing in the array size (property-tested).  Every
  probe reads one batched :class:`~repro.core.sweep.NetworkLattice`
  through :meth:`~repro.api.engine.MappingEngine.network_cycles` — the
  window grids are array-independent, so a probe costs two
  integer-divide maps, not a per-layer search (schemes without a
  batchable form fall back to the engine's memoized ``map_batch``);
* the array count needs no search: meeting a bottleneck ``T`` takes
  ``ceil(n_pw_s / T)`` replicas of each stage ``s``, so the fewest
  arrays is the closed form ``B(T) = sum_s ceil(n_pw_s / T) * step_s``
  read off one :class:`~repro.chip.sweep.ChipLattice`
  (:meth:`~repro.api.engine.MappingEngine.chip_lattice`,
  :meth:`~repro.chip.sweep.ChipLattice.min_arrays`) — the greedy
  allocator spends exactly ``B(T)`` to meet ``T`` (property-tested
  against the ``heapq`` greedy).

Targets that cannot be met inside the search bounds raise
:class:`InfeasibleTargetError` (a :class:`~repro.core.types.ReproError`
subclass) carrying the best value the bounds allow, so callers can
distinguish "ask for a bigger budget" from malformed arguments
(:class:`~repro.core.types.ConfigurationError`).
"""

from __future__ import annotations

from typing import Optional

from ..api.engine import MappingEngine, default_engine
from ..chip.config import ChipConfig
from ..core.array import PIMArray
from ..core.types import (ConfigurationError, ReproError,
                          require_positive_int)
from ..networks.layerset import Network

__all__ = ["InfeasibleTargetError", "smallest_square_array",
           "smallest_chip", "network_cycles"]


class InfeasibleTargetError(ReproError):
    """The requested target cannot be met within the search bounds.

    Raised by :func:`smallest_square_array` and :func:`smallest_chip`
    when even the largest hardware the bounds allow misses the target.
    :attr:`best` carries the best achievable value at the bound (total
    cycles / bottleneck cycles), so callers can report how far off the
    target was; it is ``None`` when no bounded configuration is
    feasible at all.
    """

    def __init__(self, message: str, *, best: Optional[int] = None) -> None:
        super().__init__(message)
        self.best = best


def _network_label(network: object) -> str:
    """A display name for error messages; plain layer iterables (which
    the engine layer deliberately accepts) have no ``.name``."""
    return getattr(network, "name", None) or "network"


def network_cycles(network: Network, array: PIMArray,
                   scheme: str = "vw-sdk", *,
                   engine: Optional[MappingEngine] = None) -> int:
    """Total cycles of *network* on *array* (distinct layers).

    Routes through the shared engine: batchable schemes read the
    network's shared lattice, the rest resolve via ``map_batch`` so
    repeated ``(layer, array, scheme)`` probes hit the solution memo.

    >>> from repro.networks import resnet18
    >>> network_cycles(resnet18(), PIMArray.square(512))
    4294
    """
    eng = engine if engine is not None else default_engine()
    return eng.network_cycles(network, array, scheme)


def smallest_square_array(network: Network, target_cycles: int,
                          scheme: str = "vw-sdk", *,
                          lo: int = 8, hi: int = 65536,
                          engine: Optional[MappingEngine] = None
                          ) -> PIMArray:
    """Smallest square array meeting a total-cycle target.

    Bisection over the side length in ``[lo, hi]``; exact because
    cycles are monotone non-increasing in the array size.  All probes
    share the network's array-independent window lattice, so the whole
    bisection costs one grid evaluation plus a cheap finishing step per
    probe.  Raises :class:`InfeasibleTargetError` when even the ``hi x
    hi`` array misses the target, and ``ConfigurationError`` unless
    ``1 <= lo <= hi``.

    >>> from repro.networks import resnet18
    >>> arr = smallest_square_array(resnet18(), 4294)
    >>> arr.rows <= 512
    True
    >>> smallest_square_array(resnet18(), 1, hi=512)
    Traceback (most recent call last):
        ...
    repro.dse.requirements.InfeasibleTargetError: Resnet-18 needs 4294 \
cycles even on a 512x512 array; target 1 is out of reach below hi=512
    """
    if target_cycles < 1:
        raise ConfigurationError("target_cycles must be >= 1")
    if not 1 <= lo <= hi:
        raise ConfigurationError(
            f"side bounds need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    eng = engine if engine is not None else default_engine()

    def total(side: int) -> int:
        return eng.network_cycles(network, PIMArray.square(side), scheme)

    best = total(hi)
    if best > target_cycles:
        raise InfeasibleTargetError(
            f"{_network_label(network)} needs {best} cycles even on a "
            f"{hi}x{hi} "
            f"array; target {target_cycles} is out of reach below hi={hi}",
            best=best)
    low, high = lo, hi
    while low < high:
        mid = (low + high) // 2
        if total(mid) <= target_cycles:
            high = mid
        else:
            low = mid + 1
    return PIMArray.square(low)


def smallest_chip(network: Network, array: PIMArray,
                  target_bottleneck: int, scheme: str = "vw-sdk", *,
                  max_arrays: int = 1 << 20,
                  engine: Optional[MappingEngine] = None
                  ) -> ChipConfig:
    """Fewest crossbars whose pipeline bottleneck meets the target.

    Closed form, no search: the engine's shared
    :class:`~repro.chip.sweep.ChipLattice` gives the fewest arrays
    meeting the target as ``B(T) = sum_s ceil(n_pw_s / T) * step_s``
    (:meth:`~repro.chip.sweep.ChipLattice.min_arrays`), and the greedy
    allocator meets ``T`` on exactly that many.  Raises
    :class:`InfeasibleTargetError` when ``B(T)`` exceeds
    ``max_arrays``: its ``best`` is the bottleneck ``max_arrays``
    crossbars reach, or ``None`` when they cannot even hold the
    weights resident.  A *target_bottleneck* or *max_arrays* that is not
    a positive integer raises
    :class:`~repro.core.types.ConfigurationError`.

    >>> from repro.networks import resnet18
    >>> chip = smallest_chip(resnet18(), PIMArray.square(512), 200,
    ...                      max_arrays=4096)
    >>> chip.num_arrays
    36
    """
    target_bottleneck = require_positive_int("target_bottleneck",
                                             target_bottleneck)
    max_arrays = require_positive_int("max_arrays", max_arrays)
    eng = engine if engine is not None else default_engine()
    lattice = eng.chip_lattice(network, array, scheme)

    needed = lattice.min_arrays(target_bottleneck)
    if needed <= max_arrays:
        return ChipConfig(array, needed)
    if lattice.floor_arrays > max_arrays:
        raise InfeasibleTargetError(
            f"{_network_label(network)} needs {lattice.floor_arrays} "
            f"arrays for "
            f"weight residency with {scheme} on {array}, more than "
            f"max_arrays={max_arrays}", best=None)
    top = lattice.bottleneck_at(max_arrays)
    raise InfeasibleTargetError(
        f"{_network_label(network)} bottlenecks at {top} cycles even with "
        f"{max_arrays} {array} arrays; target {target_bottleneck} "
        f"is out of reach", best=top)
