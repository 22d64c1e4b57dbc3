"""Materialised crossbar layouts for every mapping scheme.

A :class:`MappingPlan` turns an analytical
:class:`~repro.search.result.MappingSolution` into something executable:

* a grid of :class:`TilePlan` (one per ``AR x AC`` array programming),
  each describing which (channel, window-row, window-col) input element
  drives each crossbar row and which (out-channel, window-offset) output
  each column produces, plus the weight matrix to program;
* the list of parallel-window origins over the IFM (the final
  position clamps to the image edge, recomputing a few outputs — the
  recomputed values are identical, so the engine may overwrite them).

Row/column descriptor conventions (all integer numpy arrays):

* ``row_desc[r] = (c, py, px)`` — row ``r`` is driven by IFM channel
  ``c`` (local to the tile's channel slice) at offset ``(py, px)``
  inside the parallel window.
* ``col_desc[q] = (oc, wy, wx)`` — column ``q`` accumulates the output
  of window index ``(wy, wx)`` inside the parallel window for output
  channel ``oc`` (local to the tile's output slice).  Window indices
  are in stride units: the kernel sits at pixel offset
  ``(wy*stride, wx*stride)``.

The cell at ``(r, q)`` holds ``W[oc, c, py - wy*s, px - wx*s]`` when
that kernel coordinate exists, else the cell is unmapped (masked out).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from ..core.array import PIMArray
from ..core.layer import ConvLayer
from ..core.types import MappingError
from ..core.utilization import tile_sizes
from ..core.window import ParallelWindow
from ..search.result import MappingSolution

__all__ = ["TileIndex", "TilePlan", "MappingPlan", "build_plan"]


@dataclass(frozen=True)
class TileIndex:
    """The weight layout of one tile as small index tables.

    A tile's rows read whole channels of a ``(channels, h, w)`` block of
    the parallel window, and a row's weights depend only on its pixel
    ``p = py * w + px``, not on its channel.  So one ``(h * w,
    cols_used)`` table serves every channel: ``kernel_at[p, q]`` is the
    flat offset ``oc * K_h * K_w + ky * K_w + kx`` of the weight cell
    ``(p, q)`` holds in an ``(out_channels, K_h * K_w)`` kernel slice, or
    ``out_channels * K_h * K_w`` (a zero) where the cell is unmapped.
    ``rows`` picks the tile's rows, ``c * h * w + p``, out of the block:
    a slice for every builder's layout, an index array otherwise.  Tiles
    with the same descriptors differ only by their channel origins, so
    one index serves them all.
    """

    kernel_at: np.ndarray
    channels: int
    out_channels: int
    rows: Union[slice, np.ndarray]
    used: int

    def weights(self, kernel: np.ndarray, c0: int, o0: int
                ) -> Tuple[np.ndarray, np.ndarray]:
        """``(weights, mask)`` of a tile whose first input and output
        channels are *c0* and *o0* of the ``(OC, IC, K_h, K_w)`` *kernel*."""
        pixels, cols = self.kernel_at.shape
        unmapped = self.out_channels * kernel.shape[2] * kernel.shape[3]
        block = np.empty((self.channels, unmapped + 1), dtype=kernel.dtype)
        block[:, -1] = 0
        block[:, :-1] = kernel[o0:o0 + self.out_channels,
                               c0:c0 + self.channels].transpose(
                                   1, 0, 2, 3).reshape(self.channels, -1)
        weights = block.take(self.kernel_at, axis=1).reshape(-1, cols)
        mask = np.broadcast_to(self.kernel_at < unmapped,
                               (self.channels, pixels, cols))
        return weights[self.rows], mask.reshape(-1, cols)[self.rows]


@dataclass(frozen=True)
class TilePlan:
    """One array programming: row/column descriptors and weight builder.

    ``channel_slice`` / ``oc_slice`` locate the tile inside the layer's
    full channel ranges, so descriptors can stay tile-local.
    """

    row_desc: np.ndarray          # (R, 3) int: (local c, py, px)
    col_desc: np.ndarray          # (C, 3) int: (local oc, wy, wx)
    channel_slice: Tuple[int, int]
    oc_slice: Tuple[int, int]

    @property
    def rows_used(self) -> int:
        """Crossbar rows driven by this tile."""
        return int(self.row_desc.shape[0])

    @property
    def cols_used(self) -> int:
        """Crossbar columns read by this tile."""
        return int(self.col_desc.shape[0])

    def index(self, layer: ConvLayer) -> TileIndex:
        """The :class:`TileIndex` of this tile's layout in *layer*."""
        channels, h, w = (int(extent) for extent
                          in self.row_desc.max(axis=0) + 1)
        out_channels = int(self.col_desc[:, 0].max()) + 1
        py, px = np.divmod(np.arange(h * w), w)
        ky, kx, mask = _kernel_offsets(py, px, self.col_desc, layer)
        kernel_at = np.where(
            mask, (self.col_desc[:, 0] * layer.kernel_h + ky)
            * layer.kernel_w + kx, out_channels * layer.kernel_area)
        picked = ((self.row_desc[:, 0] * h + self.row_desc[:, 1]) * w
                  + self.row_desc[:, 2])
        start = int(picked[0])
        rows: Union[slice, np.ndarray] = picked
        if np.array_equal(picked, np.arange(start, start + picked.size)):
            rows = slice(start, start + picked.size)
        return TileIndex(kernel_at=kernel_at.astype(np.intp),
                         channels=channels, out_channels=out_channels,
                         rows=rows,
                         used=int(mask.sum(axis=1)[picked % (h * w)].sum()))

    def check_reach(self, layer: ConvLayer) -> None:
        """Raise :class:`MappingError` unless every descriptor is
        non-negative and the tile's channels lie inside *layer*'s."""
        if (self.row_desc.min() < 0 or self.col_desc.min() < 0
                or self.channel_slice[0] < 0 or self.oc_slice[0] < 0
                or self.channel_slice[0] + self.row_desc[:, 0].max()
                >= layer.in_channels
                or self.oc_slice[0] + self.col_desc[:, 0].max()
                >= layer.out_channels):
            raise MappingError(
                f"tile at channels {self.channel_slice} / {self.oc_slice} "
                f"reaches outside the layer's {layer.in_channels} / "
                f"{layer.out_channels}")

    def build_weights(self, kernel: np.ndarray, layer: ConvLayer
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Weight matrix and used-cell mask for this tile.

        Parameters
        ----------
        kernel:
            Full layer weights, shape ``(OC, IC, K_h, K_w)``.

        Returns ``(weights, mask)`` of shape ``(rows_used, cols_used)``;
        unmapped cells are zero-valued and ``mask`` is ``False`` there.
        """
        expected = (layer.out_channels, layer.in_channels,
                    layer.kernel_h, layer.kernel_w)
        if kernel.shape != expected:
            raise MappingError(
                f"kernel shape {kernel.shape} != layer {expected}")
        self.check_reach(layer)
        return self.index(layer).weights(kernel, self.channel_slice[0],
                                         self.oc_slice[0])

    def used_cells(self, layer: ConvLayer) -> int:
        """Number of mapped cells (mask popcount) without building weights."""
        return int(_kernel_offsets(self.row_desc[:, 1], self.row_desc[:, 2],
                                   self.col_desc, layer)[2].sum())


def _kernel_offsets(py: np.ndarray, px: np.ndarray, col_desc: np.ndarray,
                    layer: ConvLayer
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ky, kx, mask)`` over (row, column) cells: the kernel coordinate
    a row at window pixel ``(py, px)`` meets in each column, and whether
    that coordinate exists."""
    ky = py[:, None] - col_desc[:, 1][None, :] * layer.stride
    kx = px[:, None] - col_desc[:, 2][None, :] * layer.stride
    mask = ((ky >= 0) & (ky < layer.kernel_h)
            & (kx >= 0) & (kx < layer.kernel_w))
    return ky, kx, mask


@dataclass(frozen=True)
class MappingPlan:
    """Executable plan: tile grid plus parallel-window schedule."""

    solution: MappingSolution
    window: ParallelWindow
    tiles: Tuple[Tuple[TilePlan, ...], ...]   # [ar][ac]
    origins: Tuple[Tuple[int, int], ...]       # PW pixel origins (y, x)
    group_origins: Tuple[Tuple[int, int], ...]  # window-grid origins (gy, gx)

    @property
    def layer(self) -> ConvLayer:
        """The mapped layer."""
        return self.solution.layer

    @property
    def array(self) -> PIMArray:
        """The target array."""
        return self.solution.array

    @property
    def ar_tiles(self) -> int:
        """Row-tile count."""
        return len(self.tiles)

    @property
    def ac_tiles(self) -> int:
        """Column-tile count."""
        return len(self.tiles[0])

    @property
    def total_cycles(self) -> int:
        """Computing cycles this plan executes (= analytical count)."""
        return len(self.origins) * self.ar_tiles * self.ac_tiles

    def validate(self) -> None:
        """Check structural invariants; raises :class:`MappingError`."""
        from .validate import validate_plan  # local import, no cycle
        validate_plan(self)


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------

def _window_grid_origins(layer: ConvLayer, nw_h: int, nw_w: int
                         ) -> List[Tuple[int, int]]:
    """Group origins in window-index space, final group clamped."""
    def starts(total: int, group: int) -> List[int]:
        out = list(range(0, total - group + 1, group))
        if not out or out[-1] + group < total:
            out.append(total - group)
        return out

    return [(gy, gx)
            for gy in starts(layer.ofm_h, nw_h)
            for gx in starts(layer.ofm_w, nw_w)]


def _col_desc(nw_h: int, nw_w: int, oc_count: int) -> np.ndarray:
    """(oc, wy, wx) for every window offset and local output channel."""
    descs = [(oc, wy, wx)
             for wy in range(nw_h)
             for wx in range(nw_w)
             for oc in range(oc_count)]
    return np.asarray(descs, dtype=np.int64)


def _pw_row_desc(window: ParallelWindow, channels: int) -> np.ndarray:
    """(c, py, px) channel-major for whole-channel tiles."""
    descs = [(c, py, px)
             for c in range(channels)
             for py in range(window.h)
             for px in range(window.w)]
    return np.asarray(descs, dtype=np.int64)


def _whole_channel_tiles(layer: ConvLayer, window: ParallelWindow,
                         ic_t: int, oc_t: int, nw_h: int, nw_w: int
                         ) -> Tuple[Tuple[TilePlan, ...], ...]:
    ic_tiles = tile_sizes(layer.in_channels, ic_t)
    oc_tiles = tile_sizes(layer.out_channels, oc_t)
    grid: List[Tuple[TilePlan, ...]] = []
    c0 = 0
    for ic_size in ic_tiles:
        row_desc = _pw_row_desc(window, ic_size)
        row: List[TilePlan] = []
        o0 = 0
        for oc_size in oc_tiles:
            row.append(TilePlan(
                row_desc=row_desc,
                col_desc=_col_desc(nw_h, nw_w, oc_size),
                channel_slice=(c0, c0 + ic_size),
                oc_slice=(o0, o0 + oc_size),
            ))
            o0 += oc_size
        grid.append(tuple(row))
        c0 += ic_size
    return tuple(grid)


def _fine_grained_tiles(layer: ConvLayer, window: ParallelWindow,
                        array_rows: int, oc_t: int, nw_h: int, nw_w: int
                        ) -> Tuple[Tuple[TilePlan, ...], ...]:
    """Contiguous channel-major rows, cut every ``array_rows`` rows."""
    full = _pw_row_desc(window, layer.in_channels)
    oc_tiles = tile_sizes(layer.out_channels, oc_t)
    bounds = list(range(0, full.shape[0], array_rows)) + [full.shape[0]]
    grid: List[Tuple[TilePlan, ...]] = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        chunk = full[start:stop].copy()
        # Descriptors stay global-channel within the chunk; express as
        # local channels against slice (c_min, c_max).
        c_min = int(chunk[:, 0].min())
        c_max = int(chunk[:, 0].max()) + 1
        chunk[:, 0] -= c_min
        row: List[TilePlan] = []
        o0 = 0
        for oc_size in oc_tiles:
            row.append(TilePlan(
                row_desc=chunk,
                col_desc=_col_desc(nw_h, nw_w, oc_size),
                channel_slice=(c_min, c_max),
                oc_slice=(o0, o0 + oc_size),
            ))
            o0 += oc_size
        grid.append(tuple(row))
    return tuple(grid)


def build_plan(solution: MappingSolution) -> MappingPlan:
    """Materialise *solution* into an executable :class:`MappingPlan`.

    Scheme dispatch mirrors the cycle model's tiling rules exactly, so
    ``plan.total_cycles == solution.cycles`` for every scheme handled
    here.  SMD solutions with duplication > 1 fuse several windows per
    cycle in a block-diagonal layout and are built by
    :func:`repro.mapping.smd.build_smd_plan` instead.
    """
    layer = solution.layer
    array = solution.array
    window = solution.window
    bd = solution.breakdown

    if solution.scheme == "smd" and solution.duplication > 1:
        raise MappingError(
            "SMD plans with duplication need build_smd_plan (see "
            "repro.mapping.smd)")

    nw_h, nw_w = window.windows_along(layer)
    if solution.uses_whole_channel_tiling:
        tiles = _whole_channel_tiles(layer, window, bd.ic_t, bd.oc_t,
                                     nw_h, nw_w)
    else:
        # im2col / SMD-fallback / SDK layouts (and VW-SDK solutions that
        # degenerated to the fine-grained im2col initialisation) lay
        # rows out contiguously and cut them at row capacity.
        tiles = _fine_grained_tiles(layer, window, array.rows,
                                    bd.oc_t, nw_h, nw_w)

    if len(tiles) != bd.ar or len(tiles[0]) != bd.ac:
        raise MappingError(
            f"tile grid {len(tiles)}x{len(tiles[0])} disagrees with "
            f"breakdown {bd.ar}x{bd.ac} for {solution}")

    group_origins = _window_grid_origins(layer, nw_h, nw_w)
    origins = tuple((gy * layer.stride, gx * layer.stride)
                    for gy, gx in group_origins)
    if len(origins) != bd.n_pw:
        raise MappingError(
            f"schedule has {len(origins)} positions but breakdown says "
            f"{bd.n_pw} for {solution}")
    return MappingPlan(solution=solution, window=window, tiles=tiles,
                       origins=origins, group_origins=tuple(group_origins))
