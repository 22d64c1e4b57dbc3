"""Design-space exploration: inverse sizing and Pareto analysis.

All entry points share the batched lattices exposed by the
:class:`~repro.api.engine.MappingEngine` — array-size bisections and
(non-square) array sweeps reuse one window-grid evaluation per layer
geometry, and the fewest arrays for a bottleneck target is read in
closed form off one precomputed :class:`~repro.chip.sweep.ChipLattice`
— instead of re-solving or re-planning per probe.  Infeasible targets
raise the typed :class:`InfeasibleTargetError`.  :func:`zoo_pareto` is
the zoo-scale entry point: one shared non-square candidate grid swept
across every model-zoo network on one engine.
"""

from .pareto import (
    DEFAULT_SIDES,
    ArrayDesignPoint,
    ChipDesignPoint,
    ParetoPoint,
    array_candidates,
    array_pareto,
    chip_pareto,
    pareto_front,
    window_pareto,
    zoo_pareto,
)
from .requirements import (
    InfeasibleTargetError,
    network_cycles,
    smallest_chip,
    smallest_square_array,
)

__all__ = [
    "ParetoPoint",
    "ArrayDesignPoint",
    "ChipDesignPoint",
    "DEFAULT_SIDES",
    "pareto_front",
    "window_pareto",
    "array_pareto",
    "array_candidates",
    "chip_pareto",
    "zoo_pareto",
    "InfeasibleTargetError",
    "network_cycles",
    "smallest_square_array",
    "smallest_chip",
]
