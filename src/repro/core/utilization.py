"""Array-utilization model (paper eq. 9).

The paper defines utilization as the used-cell fraction averaged over
the ``C = AR * AC`` distinct array programmings of a layer::

    U(%) = (1/C) * sum_n (U_n / T_n) * 100

(Every parallel-window *position* reuses the same programmed cells, so
positions do not enter the average — only the tile grid does.)

"Used" counts *mapped* weight cells structurally: a cell holding a
zero-valued weight is still used; a cell outside every shifted kernel's
footprint is not.  Per column of an SDK/VW-SDK tile only ``K_h*K_w``
cells per channel fall inside the kernel footprint — the rest of the
``PW_h*PW_w`` window rows are idle for that column — which is exactly
why utilization differentiates the schemes.

Tile accounting per scheme (matches the cycle model's tiling rules):

* im2col — fine-grained row chunks: every cell of a chunk is a weight,
  so a tile uses ``chunk_rows * oc_tile`` cells.
* SDK — whole channels laid out contiguously and chunked at row
  boundaries like im2col; a chunk may cut a channel mid-window, so the
  per-column footprint overlap is computed exactly (vectorised, tiny).
* VW-SDK — whole-channel tiles: ``K_area * ic_tile`` cells per column,
  ``windows_per_PW * oc_tile`` columns.
* SMD — ``d`` block-diagonal im2col copies, all active each cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..search.result import MappingSolution

__all__ = ["TileUsage", "UtilizationReport", "utilization_report",
           "tile_sizes"]


def tile_sizes(total: int, tile: int) -> List[int]:
    """Split *total* into ceil(total/tile) tiles of size <= *tile*.

    >>> tile_sizes(128, 42)
    [42, 42, 42, 2]
    """
    if tile <= 0:
        raise ValueError(f"tile must be positive, got {tile}")
    sizes = []
    remaining = total
    while remaining > 0:
        take = min(tile, remaining)
        sizes.append(take)
        remaining -= take
    return sizes


@dataclass(frozen=True)
class TileUsage:
    """Cell/row/column usage of one (AR, AC) tile programming."""

    rows_used: int
    cols_used: int
    cells_used: int

    def fraction(self, total_cells: int) -> float:
        """Used-cell fraction of the whole array."""
        return self.cells_used / total_cells


@dataclass(frozen=True)
class UtilizationReport:
    """Utilization of a mapping solution across its tile grid.

    ``mean_pct`` is the paper's eq. 9; ``peak_pct`` is the best single
    tile (the paper's "up to 73.8% at layer 5" quotes the peak).
    """

    solution: MappingSolution
    tiles: Tuple[TileUsage, ...]

    @property
    def total_cells(self) -> int:
        """Cells in the array."""
        return self.solution.array.cells

    @property
    def fractions(self) -> Tuple[float, ...]:
        """Used fraction per tile, in tile-grid order."""
        return tuple(t.fraction(self.total_cells) for t in self.tiles)

    @property
    def mean_pct(self) -> float:
        """Eq. 9: average used-cell percentage over the tile grid."""
        fracs = self.fractions
        return 100.0 * sum(fracs) / len(fracs)

    @property
    def peak_pct(self) -> float:
        """Best single-tile used-cell percentage."""
        return 100.0 * max(self.fractions)

    @property
    def min_pct(self) -> float:
        """Worst single-tile used-cell percentage."""
        return 100.0 * min(self.fractions)


def _sdk_chunk_cells(solution: MappingSolution,
                     oc_tiles: Sequence[int]) -> List[TileUsage]:
    """Exact per-chunk usage for SDK's contiguous whole-channel layout."""
    layer, array, window = (solution.layer, solution.array, solution.window)
    nw_h, nw_w = window.windows_along(layer)
    nw = nw_h * nw_w
    area = window.area
    # Footprint of one channel: used[r, o] == 1 when window row r feeds
    # kernel window o's column; window (wy, wx) sits at pixel
    # (wy*s, wx*s).
    used = np.zeros((area, nw), dtype=np.int64)
    for o_idx in range(nw):
        wy, wx = divmod(o_idx, nw_w)
        y0, x0 = wy * layer.stride, wx * layer.stride
        for ph in range(y0, y0 + layer.kernel_h):
            for pw in range(x0, x0 + layer.kernel_w):
                used[ph * window.w + pw, o_idx] = 1
    # Global row axis: channel-major repetition of the footprint.
    total_rows = area * layer.in_channels
    per_row_cols = np.tile(used.sum(axis=1), layer.in_channels)
    chunk_bounds = list(range(0, total_rows, array.rows)) + [total_rows]
    tiles: List[TileUsage] = []
    for start, stop in zip(chunk_bounds[:-1], chunk_bounds[1:]):
        cells_per_copy = int(per_row_cols[start:stop].sum())
        for oc_tile in oc_tiles:
            tiles.append(TileUsage(
                rows_used=stop - start,
                cols_used=nw * oc_tile,
                cells_used=cells_per_copy * oc_tile,
            ))
    return tiles


def utilization_report(solution: MappingSolution) -> UtilizationReport:
    """Compute the eq. 9 utilization report for any mapping solution.

    >>> from repro.core import ConvLayer, PIMArray
    >>> from repro.search import vwsdk_solution
    >>> layer = ConvLayer.square(56, 3, 128, 256)     # VGG-13 layer 5
    >>> rep = utilization_report(vwsdk_solution(layer, PIMArray.square(512)))
    >>> round(rep.peak_pct, 1)                        # paper: "up to 73.8%"
    73.8
    """
    layer, array, window = (solution.layer, solution.array, solution.window)
    bd = solution.breakdown
    oc_tiles = tile_sizes(layer.out_channels, bd.oc_t)

    if solution.scheme == "smd" and solution.duplication > 1:
        d = solution.duplication
        cells = d * layer.im2col_rows * layer.out_channels
        tiles = (TileUsage(rows_used=d * layer.im2col_rows,
                           cols_used=d * layer.out_channels,
                           cells_used=cells),)
        return UtilizationReport(solution=solution, tiles=tiles)

    if not solution.uses_whole_channel_tiling and solution.scheme != "sdk":
        total_rows = layer.im2col_rows
        chunk_bounds = list(range(0, total_rows, array.rows)) + [total_rows]
        tiles_list: List[TileUsage] = []
        for start, stop in zip(chunk_bounds[:-1], chunk_bounds[1:]):
            for oc_tile in oc_tiles:
                tiles_list.append(TileUsage(
                    rows_used=stop - start,
                    cols_used=oc_tile,
                    cells_used=(stop - start) * oc_tile,
                ))
        return UtilizationReport(solution=solution, tiles=tuple(tiles_list))

    if solution.scheme == "sdk":
        return UtilizationReport(
            solution=solution,
            tiles=tuple(_sdk_chunk_cells(solution, oc_tiles)))

    # VW-SDK (or any whole-channel variable window).
    nw = window.windows_inside(layer)
    ic_tiles = tile_sizes(layer.in_channels, bd.ic_t)
    tiles_list = []
    for ic_tile in ic_tiles:
        for oc_tile in oc_tiles:
            tiles_list.append(TileUsage(
                rows_used=window.area * ic_tile,
                cols_used=nw * oc_tile,
                cells_used=layer.kernel_area * ic_tile * nw * oc_tile,
            ))
    return UtilizationReport(solution=solution, tiles=tuple(tiles_list))
