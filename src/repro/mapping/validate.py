"""Structural validation of mapping plans.

These checks catch layout bugs before execution:

* every tile fits the physical array;
* the tile grid covers all input and output channels exactly once;
* the window schedule covers every OFM element at least once;
* used-cell counts agree with the analytical utilization model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..core.types import MappingError
from ..core.utilization import utilization_report

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .plan import MappingPlan

__all__ = ["validate_plan"]


def _check_tile_dims(plan: "MappingPlan") -> None:
    array = plan.array
    for ar_row in plan.tiles:
        for tile in ar_row:
            if tile.rows_used > array.rows:
                raise MappingError(
                    f"tile uses {tile.rows_used} rows > array {array.rows}")
            if tile.cols_used > array.cols:
                raise MappingError(
                    f"tile uses {tile.cols_used} cols > array {array.cols}")
            if tile.rows_used == 0 or tile.cols_used == 0:
                raise MappingError("empty tile in plan")


def _check_channel_cover(plan: "MappingPlan") -> None:
    layer = plan.layer
    # Row tiles must cover channels contiguously.
    covered_rows = 0
    for ar_row in plan.tiles:
        covered_rows += ar_row[0].rows_used
    expected = None
    if plan.solution.scheme in ("im2col", "smd") or plan.solution.is_im2col_shaped:
        expected = layer.im2col_rows
    elif plan.solution.scheme == "sdk":
        expected = plan.window.area * layer.in_channels
    if expected is not None and covered_rows != expected:
        raise MappingError(
            f"row tiles cover {covered_rows} rows, expected {expected}")
    # Column tiles must partition the output channels.
    oc_cover = []
    for tile in plan.tiles[0]:
        oc_cover.append(tile.oc_slice)
    pos = 0
    for start, stop in oc_cover:
        if start != pos:
            raise MappingError(f"output-channel gap at {pos} (tile at {start})")
        pos = stop
    if pos != layer.out_channels:
        raise MappingError(
            f"output channels covered up to {pos} of {layer.out_channels}")


def _check_output_cover(plan: "MappingPlan") -> None:
    layer = plan.layer
    nw_h, nw_w = plan.window.windows_along(layer)
    groups = np.asarray(plan.group_origins, dtype=np.int64).reshape(-1, 2)
    ys, xs = np.broadcast_arrays(
        groups[:, 0][:, None, None] + np.arange(nw_h)[:, None],
        groups[:, 1][:, None, None] + np.arange(nw_w))
    covered = 0
    if ys.size:
        y0, x0 = ys.min(), xs.min()
        grid = np.zeros((ys.max() - y0 + 1, xs.max() - x0 + 1), dtype=bool)
        grid[ys - y0, xs - x0] = True
        covered = int(np.count_nonzero(grid))
    expected = layer.ofm_h * layer.ofm_w
    if covered != expected:
        raise MappingError(
            f"window schedule covers {covered} OFM elements, "
            f"expected {expected}")
    if ys.max() >= layer.ofm_h or xs.max() >= layer.ofm_w:
        raise MappingError("window schedule writes outside the OFM")


def _check_used_cells(plan: "MappingPlan") -> None:
    """Layout mask popcounts must equal the analytical utilization."""
    report = utilization_report(plan.solution)
    analytical = [tile.cells_used for tile in report.tiles]
    actual = [tile.used_cells(plan.layer)
              for ar_row in plan.tiles for tile in ar_row]
    if sorted(analytical) != sorted(actual):
        raise MappingError(
            f"used-cell mismatch: analytical {sorted(analytical)[:4]}... "
            f"vs layout {sorted(actual)[:4]}...")


def validate_plan(plan: "MappingPlan") -> None:
    """Run all structural checks on *plan*; raise on the first failure."""
    _check_tile_dims(plan)
    _check_channel_cover(plan)
    _check_output_cover(plan)
    _check_used_cells(plan)
