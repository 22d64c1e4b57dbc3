"""Chip-level deployment: many crossbars, weight-resident pipelines."""

from .allocation import LayerAllocation, allocate_layer, residency_arrays
from .config import ChipConfig
from .pipeline import InsufficientArraysError, PipelinePlan, plan_pipeline
from .pools import PoolPlan, best_fit_arrays, pool_plans
from .sweep import ChipLattice, ChipOutcome, ChipSweep, chip_lattice

__all__ = [
    "ChipConfig",
    "ChipLattice",
    "ChipOutcome",
    "ChipSweep",
    "chip_lattice",
    "PoolPlan",
    "best_fit_arrays",
    "pool_plans",
    "LayerAllocation",
    "allocate_layer",
    "residency_arrays",
    "PipelinePlan",
    "plan_pipeline",
    "InsufficientArraysError",
]
