"""Layer-pipelined network inference on a multi-array chip.

PipeLayer-style deployment [1]: every layer is weight-resident on its
own crossbars and images stream through the layer pipeline.  Steady-
state throughput is set by the slowest stage, so the allocator's job is

    minimise   max_i latency_i(a_i)
    subject to sum_i a_i * repeats_i  <=  num_arrays,

with ``latency_i(a) = ceil(N_PW_i / floor(a / tiles_i))``.  Each extra
replica of a stage divides its latency, so the classic greedy — give
the next array block to the current bottleneck — is optimal for this
min-max objective (latencies are non-increasing step functions of the
array count; verified against brute force in the tests).

The planner also reports single-image (fill) latency and per-stage
utilization, and compares mapping schemes end to end: VW-SDK's smaller
``AR x AC`` grids both shrink the residency floor *and* free arrays for
replication, compounding its single-array win.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..api.engine import MappingEngine, default_engine
from ..core.types import ReproError, ceil_div
from ..networks.layerset import Network
from .allocation import LayerAllocation, allocate_layer, residency_arrays
from .config import ChipConfig

__all__ = ["PipelinePlan", "plan_pipeline", "InsufficientArraysError"]


class InsufficientArraysError(ReproError):
    """The chip cannot hold the network's weights resident."""


@dataclass(frozen=True)
class PipelinePlan:
    """A weight-resident pipelined deployment of one network."""

    network: Network
    chip: ChipConfig
    scheme: str
    allocations: Tuple[LayerAllocation, ...]

    @property
    def bottleneck_cycles(self) -> int:
        """Steady-state cycles between finished inferences."""
        return max(a.latency_cycles for a in self.allocations)

    @property
    def fill_latency_cycles(self) -> int:
        """Cycles for the first image to traverse the whole pipeline."""
        return sum(a.latency_cycles for a in self.allocations)

    @property
    def arrays_used(self) -> int:
        """Total crossbars consumed (repeated blocks counted)."""
        return sum(a.arrays * a.solution.layer.repeats
                   for a in self.allocations)

    @property
    def throughput_per_kcycle(self) -> float:
        """Steady-state inferences per thousand chip cycles."""
        return 1000.0 / self.bottleneck_cycles

    def speedup_over(self, other: "PipelinePlan") -> float:
        """Steady-state throughput ratio versus *other*."""
        return other.bottleneck_cycles / self.bottleneck_cycles

    def rows(self) -> List[Dict[str, object]]:
        """Per-stage table for reports."""
        out: List[Dict[str, object]] = []
        for i, alloc in enumerate(self.allocations, start=1):
            sol = alloc.solution
            out.append({
                "stage": i,
                "layer": sol.layer.name or f"conv{i}",
                "window": str(sol.window),
                "tiles": residency_arrays(sol),
                "arrays": alloc.arrays,
                "replicas": alloc.replicas,
                "stage cycles": alloc.latency_cycles,
            })
        return out


def _minimum_allocation(solutions: Sequence) -> List[int]:
    return [residency_arrays(sol) for sol in solutions]


def plan_pipeline(network: Network, chip: ChipConfig,
                  scheme: str = "vw-sdk",
                  engine: Optional[MappingEngine] = None, *,
                  solutions: Optional[Sequence] = None) -> PipelinePlan:
    """Allocate the chip's crossbars across the network's layers.

    Per-layer mappings come from *engine* (the shared
    :func:`repro.api.default_engine` by default), so planning a chip
    for a network that was already mapped costs no solver time.
    Callers replanning the *same* network/array many times — e.g. an
    oracle replaying a grid of array counts — can pass the per-layer
    *solutions* (one per network layer, in order) to skip even the
    memo lookups.

    Raises :class:`InsufficientArraysError` when even the residency
    minimum (one array per tile programming, times block repeats) does
    not fit the chip.

    >>> from repro.core import PIMArray
    >>> from repro.networks import resnet18
    >>> chip = ChipConfig(PIMArray.square(512), 64)
    >>> plan = plan_pipeline(resnet18(), chip, "vw-sdk")
    >>> plan.arrays_used <= 64
    True
    """
    if solutions is None:
        eng = engine if engine is not None else default_engine()
        solutions = [eng.solve(layer, chip.array, scheme)
                     for layer in network]
    elif len(solutions) != len(network):
        raise ReproError(
            f"plan_pipeline got {len(solutions)} precomputed solutions "
            f"for {len(network)} layers of {network.name}")
    minimum = _minimum_allocation(solutions)
    repeats = [sol.layer.repeats for sol in solutions]
    floor_arrays = sum(m * r for m, r in zip(minimum, repeats))
    if floor_arrays > chip.num_arrays:
        raise InsufficientArraysError(
            f"{network.name} needs {floor_arrays} arrays for weight "
            f"residency with {scheme} on {chip.array}, chip has only "
            f"{chip.num_arrays}")

    # Greedy min-max: repeatedly give the bottleneck stage one more
    # full replica (its tiles x repeats arrays) while budget remains.
    assigned = list(minimum)
    budget = chip.num_arrays - floor_arrays

    def latency(index: int) -> int:
        replicas = assigned[index] // minimum[index]
        return ceil_div(solutions[index].breakdown.n_pw, replicas)

    heap: List[Tuple[int, int]] = [(-latency(i), i)
                                   for i in range(len(solutions))]
    heapq.heapify(heap)
    while heap:
        neg_lat, index = heapq.heappop(heap)
        step = minimum[index] * repeats[index]
        if step > budget:
            continue  # cannot afford another replica of this stage
        # Only replicate while it actually helps.
        if latency(index) == 1:
            continue
        assigned[index] += minimum[index]
        budget -= step
        heapq.heappush(heap, (-latency(index), index))

    allocations = tuple(
        allocate_layer(sol, arrays)
        for sol, arrays in zip(solutions, assigned))
    return PipelinePlan(network=network, chip=chip, scheme=scheme,
                        allocations=allocations)
