"""Materialised crossbar layouts for each mapping scheme."""

from .ascii_art import render_plan, render_tile
from .plan import MappingPlan, TilePlan, build_plan
from .smd import SMDPlan, build_smd_plan
from .validate import validate_plan

__all__ = [
    "MappingPlan",
    "TilePlan",
    "build_plan",
    "SMDPlan",
    "build_smd_plan",
    "validate_plan",
    "render_plan",
    "render_tile",
]
