"""Cycle-accurate execution of mapping plans on a simulated crossbar.

The engine is the reproduction's ground truth: it takes an analytical
:class:`~repro.search.result.MappingSolution`, materialises the layout,
and actually *runs* the convolution tile by tile and parallel window by
parallel window.  Its contract, enforced on every run:

* the produced OFM equals the direct convolution (exactly, in ideal
  mode — tests use integer-valued data, for which float64 accumulation
  is exact);
* the number of executed computing cycles equals the analytical count
  of eqs. 1-8.

Per-cycle activity (rows driven, columns read, active cells) is
accumulated for the energy model.

A tiled plan runs from index tables built once per distinct tile
layout: a tile's weights are one ``take`` from its kernel slice (see
:class:`~repro.mapping.plan.TileIndex`), and its inputs and outputs are
one ``take`` and one indexed write per schedule row.  Plans built from
a solution are validated and indexed once and then served from
:data:`_PLAN_MEMO`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar, \
    Union

import numpy as np

from ..core.array import PIMArray
from ..core.cache import LRUMemo, frozen_arrays
from ..core.cost import CostParams, DEFAULT_COST_PARAMS
from ..core.layer import ConvLayer
from ..core.types import ConfigurationError, MappingError
from ..mapping.plan import MappingPlan, TileIndex, TilePlan, build_plan
from ..mapping.smd import SMDPlan, build_smd_plan
from ..search.result import MappingSolution
from .crossbar import Crossbar
from .reference import pad_ifm
from .trace import CycleRecord, ExecutionTrace

__all__ = ["ExecutionResult", "PIMEngine"]

T = TypeVar("T")


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of executing one layer on the simulated crossbar."""

    ofm: np.ndarray
    cycles: int
    rows_driven: int
    cols_read: int
    active_cells: int
    programmings: int
    array_cols: int = 0
    trace: Optional[ExecutionTrace] = field(default=None, compare=False)

    def energy_nj(self, params: CostParams = DEFAULT_COST_PARAMS) -> float:
        """Compute energy from the recorded per-cycle activity.

        Honors ``params.idle_column_conversion`` the same way the
        analytical cost model does (see :mod:`repro.core.cost`).
        """
        conversions = (self.cycles * self.array_cols
                       if params.idle_column_conversion and self.array_cols
                       else self.cols_read)
        pj = (conversions * params.adc_energy_pj
              + self.rows_driven * params.dac_energy_pj
              + self.active_cells * params.cell_energy_pj)
        return pj / 1000.0

    def latency_us(self, params: CostParams = DEFAULT_COST_PARAMS) -> float:
        """Wall latency from the cycle count."""
        return self.cycles * params.cycle_time_ns / 1000.0


def _schedule_rows(origins: np.ndarray, width: int
                   ) -> Tuple[Tuple[int, ...], np.ndarray]:
    """Split a schedule of ``(y, x)`` origins into rows.

    Returns the flat offset ``y * width + x0`` where each row starts and
    the ``x - x0 >= 0`` offsets shared by every row.  Every builder's
    schedule is a product grid, one row per ``y``; any other schedule
    runs one position per row.
    """
    ys, xs = origins[:, 0], origins[:, 1]
    per_row = int(np.argmax(ys != ys[0])) or ys.size
    if ys.size % per_row == 0:
        grid_y, grid_x = ys.reshape(-1, per_row), xs.reshape(-1, per_row)
        if (grid_y == grid_y[:, :1]).all() and (grid_x == grid_x[:1]).all():
            x0 = grid_x[0].min()
            return (tuple((grid_y[:, 0] * width + x0).tolist()),
                    grid_x[0] - x0)
    return tuple((ys * width + xs).tolist()), np.zeros(1, dtype=np.intp)


@dataclass(frozen=True)
class _IndexedPlan:
    """A tiled plan with its index tables.

    ``weights[ar][ac]`` is the tile's :class:`TileIndex`.
    ``gather[ar][ac]`` holds, for every position of one schedule row and
    every crossbar row, the flat padded-IFM offset the tile reads,
    counted from its first channel and the row's start in ``in_rows``.
    ``scatter[ac]`` is the same for the OFM offsets the columns write,
    as a pair: the order that sorts one schedule row's results by
    offset, and the sorted offsets.  The sort is stable, so results that
    land on the same output keep their C order.  Tiles with the same
    layout share their tables.
    """

    plan: MappingPlan
    weights: Tuple[Tuple[TileIndex, ...], ...]
    gather: Tuple[Tuple[np.ndarray, ...], ...]
    in_rows: Tuple[int, ...]
    scatter: Tuple[np.ndarray, ...]
    out_rows: Tuple[int, ...]

    @property
    def layer(self) -> ConvLayer:
        """The mapped layer."""
        return self.plan.layer

    @classmethod
    def of(cls, plan: MappingPlan) -> "_IndexedPlan":
        """Index *plan*, once per distinct tile layout.

        Raises :class:`MappingError` when a tile would read or write
        outside the layer's feature maps, so no flat offset can wrap
        into a neighbouring row or channel.
        """
        layer = plan.layer
        height, width = layer.padded_ifm_h, layer.padded_ifm_w
        origins = np.asarray(plan.origins, dtype=np.intp).reshape(-1, 2)
        groups = np.asarray(plan.group_origins, dtype=np.intp).reshape(-1, 2)
        if origins.min() < 0 or groups.min() < 0:
            raise MappingError("window schedule has a negative origin")
        in_reach = (height - origins[:, 0].max(), width - origins[:, 1].max())
        out_reach = (layer.ofm_h - groups[:, 0].max(),
                     layer.ofm_w - groups[:, 1].max())
        in_rows, in_x = _schedule_rows(origins, width)
        out_rows, out_x = _schedule_rows(groups, layer.ofm_w)
        shared: Dict[Tuple[object, ...], object] = {}

        def once(key: Tuple[object, ...], build: Callable[[], T]) -> T:
            if key not in shared:
                shared[key] = build()
            return shared[key]  # type: ignore[return-value]

        def read_table(rows: np.ndarray) -> np.ndarray:
            return in_x[:, None] + (
                (rows[:, 0] * height + rows[:, 1]) * width + rows[:, 2])

        def write_table(cols: np.ndarray) -> np.ndarray:
            targets = (out_x[:, None] + (
                (cols[:, 0] * layer.ofm_h + cols[:, 1]) * layer.ofm_w
                + cols[:, 2])).reshape(-1)
            order = np.argsort(targets, kind="stable")
            return np.stack((order, targets[order]))

        def tables(tile: TilePlan) -> Tuple[TileIndex, np.ndarray,
                                            np.ndarray]:
            tile.check_reach(layer)
            rows, cols = tile.row_desc, tile.col_desc
            if (rows[:, 1].max() >= in_reach[0]
                    or rows[:, 2].max() >= in_reach[1]
                    or cols[:, 1].max() >= out_reach[0]
                    or cols[:, 2].max() >= out_reach[1]):
                raise MappingError(
                    "window schedule reaches outside the padded IFM or "
                    "the OFM")
            row_key = ("rows", rows.shape, rows.tobytes())
            col_key = ("cols", cols.shape, cols.tobytes())
            return (once(row_key + col_key, lambda: tile.index(layer)),
                    once(row_key, lambda: read_table(rows)),
                    once(col_key, lambda: write_table(cols)))

        grid = [[tables(tile) for tile in row] for row in plan.tiles]
        return cls(plan=plan,
                   weights=tuple(tuple(t[0] for t in row) for row in grid),
                   gather=tuple(tuple(t[1] for t in row) for row in grid),
                   in_rows=in_rows,
                   scatter=tuple(t[2] for t in grid[0]),
                   out_rows=out_rows)

    def arrays(self) -> Iterator[np.ndarray]:
        """Every array the plan and its tables hold."""
        for row in self.plan.tiles:
            for tile in row:
                yield from (tile.row_desc, tile.col_desc)
        for indexes, gathers in zip(self.weights, self.gather):
            for index in indexes:
                yield index.kernel_at
                if isinstance(index.rows, np.ndarray):
                    yield index.rows
            yield from gathers
        yield from self.scatter


def _indexed_plan(solution: MappingSolution) -> _IndexedPlan:
    """Build, validate and index the tiled plan of *solution*."""
    plan = build_plan(solution)
    plan.validate()
    indexed = _IndexedPlan.of(plan)
    frozen_arrays(indexed.arrays())  # shared by every replay of the solution
    return indexed


#: Validated tiled plans with their index tables, keyed by the
#: :class:`MappingSolution` they were built from (its equality ignores
#: ``layer.name``, ``array.name`` and ``candidates_searched``).  Replaying
#: a solution again skips building, validating and indexing its plan.
#: A plan that fails validation raises inside the factory and is never
#: stored.
_PLAN_MEMO: LRUMemo = LRUMemo(maxsize=32)


class PIMEngine:
    """Executes mapping plans on a (possibly non-ideal) crossbar."""

    def __init__(self, crossbar: Optional[Crossbar] = None, *,
                 record_trace: bool = False) -> None:
        self.crossbar = crossbar
        self.record_trace = record_trace

    # ------------------------------------------------------------------
    def run(self, mapping: Union[MappingSolution, MappingPlan, SMDPlan],
            ifm: np.ndarray, kernel: np.ndarray) -> ExecutionResult:
        """Execute *mapping* for the given inputs and weights.

        Parameters
        ----------
        mapping:
            A solution (its layout is built, validated and indexed on
            the first run and served from :data:`_PLAN_MEMO` after) or
            a pre-built plan (indexed on every run).
        ifm:
            ``(IC, H, W)`` input feature map (unpadded; the engine pads).
        kernel:
            ``(OC, IC, K_h, K_w)`` weights.

        >>> import numpy as np
        >>> from repro import ConvLayer, PIMArray, vwsdk_solution
        >>> layer = ConvLayer.square(6, 3, 2, 2)
        >>> sol = vwsdk_solution(layer, PIMArray(64, 32))
        >>> rng = np.random.default_rng(0)
        >>> ifm = rng.integers(-4, 5, (2, 6, 6)).astype(float)
        >>> k = rng.integers(-4, 5, (2, 2, 3, 3)).astype(float)
        >>> res = PIMEngine().run(sol, ifm, k)
        >>> res.cycles == sol.cycles
        True
        """
        plan = self._as_plan(mapping)
        layer = plan.layer
        ifm = np.asarray(ifm, dtype=np.float64)
        kernel = np.asarray(kernel, dtype=np.float64)
        if ifm.shape != (layer.in_channels, layer.ifm_h, layer.ifm_w):
            raise ConfigurationError(
                f"ifm shape {ifm.shape} != layer "
                f"({layer.in_channels}, {layer.ifm_h}, {layer.ifm_w})")
        expected_kernel = (layer.out_channels, layer.in_channels,
                           layer.kernel_h, layer.kernel_w)
        if kernel.shape != expected_kernel:
            raise ConfigurationError(
                f"kernel shape {kernel.shape} != layer {expected_kernel}")

        if isinstance(plan, SMDPlan):
            return self._run_smd(plan, ifm, kernel)
        return self._run_tiled(plan, ifm, kernel)

    # ------------------------------------------------------------------
    def _as_plan(self, mapping) -> Union[_IndexedPlan, SMDPlan]:
        if isinstance(mapping, SMDPlan):
            return mapping
        if isinstance(mapping, MappingPlan):
            return _IndexedPlan.of(mapping)
        if not isinstance(mapping, MappingSolution):
            raise ConfigurationError(
                f"cannot execute {type(mapping).__name__}")
        if mapping.scheme == "smd" and mapping.duplication > 1:
            return build_smd_plan(mapping)
        return _PLAN_MEMO.get_or_compute(
            mapping, lambda: _indexed_plan(mapping))

    def _crossbar_for(self, array: PIMArray) -> Crossbar:
        if self.crossbar is None:
            return Crossbar(array)
        if (self.crossbar.array.rows < array.rows
                or self.crossbar.array.cols < array.cols):
            raise MappingError(
                f"engine crossbar {self.crossbar.array} smaller than the "
                f"plan's target {array}")
        return self.crossbar

    # ------------------------------------------------------------------
    def _run_tiled(self, indexed: _IndexedPlan, ifm: np.ndarray,
                   kernel: np.ndarray) -> ExecutionResult:
        plan = indexed.plan
        layer = plan.layer
        padded = pad_ifm(ifm, layer.padding).reshape(-1)
        crossbar = self._crossbar_for(plan.array)
        ofm = np.zeros((layer.out_channels, layer.ofm_h, layer.ofm_w))
        in_plane = layer.padded_ifm_h * layer.padded_ifm_w
        out_plane = layer.ofm_h * layer.ofm_w

        n_pos = len(plan.origins)
        cycles = rows_driven = cols_read = active_cells = 0
        records: List[CycleRecord] = []

        for ac_index in range(plan.ac_tiles):
            acc: Optional[np.ndarray] = None
            for ar_index in range(plan.ar_tiles):
                tile = plan.tiles[ar_index][ac_index]
                index = indexed.weights[ar_index][ac_index]
                crossbar.program(*index.weights(
                    kernel, tile.channel_slice[0], tile.oc_slice[0]))
                gathered = self._gather(
                    padded[tile.channel_slice[0] * in_plane:],
                    indexed.in_rows, indexed.gather[ar_index][ac_index])
                partial = crossbar.compute(gathered)
                if acc is None:
                    acc = partial
                else:
                    acc += partial
                cycles += n_pos
                rows_driven += n_pos * tile.rows_used
                cols_read += n_pos * tile.cols_used
                active_cells += n_pos * index.used
                if self.record_trace:
                    records.append(CycleRecord(
                        ar=ar_index, ac=ac_index, positions=n_pos,
                        rows=tile.rows_used, cols=tile.cols_used,
                        cells=index.used))
            assert acc is not None
            o0, _ = plan.tiles[0][ac_index].oc_slice
            self._scatter(ofm.reshape(-1)[o0 * out_plane:], indexed.out_rows,
                          indexed.scatter[ac_index], acc)

        expected = plan.total_cycles
        if cycles != expected:
            raise MappingError(
                f"executed {cycles} cycles, plan says {expected}")
        trace = ExecutionTrace(tuple(records)) if self.record_trace else None
        return ExecutionResult(
            ofm=ofm, cycles=cycles, rows_driven=rows_driven,
            cols_read=cols_read, active_cells=active_cells,
            programmings=plan.ar_tiles * plan.ac_tiles,
            array_cols=plan.array.cols, trace=trace)

    @staticmethod
    def _gather(padded: np.ndarray, starts: Tuple[int, ...],
                table: np.ndarray) -> np.ndarray:
        """Input matrix ``(n_positions, rows_used)`` for one tile.

        *padded* is the flat padded IFM from the tile's first channel;
        schedule row ``i`` copies ``padded[starts[i] + table]``.  The
        plan index checked every offset, so ``clip`` never clips; it
        lets ``take`` write straight into the result.
        """
        per_row = table.shape[0]
        out = np.empty((len(starts) * per_row, table.shape[1]))
        for i, start in enumerate(starts):
            padded[start:].take(table, out=out[i * per_row:(i + 1) * per_row],
                                mode="clip")
        return out

    @staticmethod
    def _scatter(ofm: np.ndarray, starts: Tuple[int, ...],
                 table: np.ndarray, acc: np.ndarray) -> None:
        """Write ``(n_positions, cols_used)`` results into the OFM.

        *ofm* is the flat OFM from the tile's first output channel;
        schedule row ``i`` puts its results, picked in the order
        ``table[0]``, at ``ofm[starts[i] + table[1]]``: ascending
        addresses, so the writes stream through memory.  Clamped
        schedule positions recompute some outputs; those writes keep
        their C order of ``(position, column)``, so the last position
        wins, as with plain fancy assignment.
        """
        order, targets = table
        per_row = order.size // acc.shape[1]
        for i, start in enumerate(starts):
            ofm[start:][targets] = acc[i * per_row:(i + 1) * per_row].take(
                order)

    # ------------------------------------------------------------------
    def _run_smd(self, plan: SMDPlan, ifm: np.ndarray,
                 kernel: np.ndarray) -> ExecutionResult:
        layer = plan.layer
        padded = pad_ifm(ifm, layer.padding)
        crossbar = self._crossbar_for(plan.solution.array)
        weights, mask = plan.build_weights(kernel)
        crossbar.program(weights, mask)

        d = plan.duplication
        rows_per_copy = layer.im2col_rows
        oc = layer.out_channels
        ofm = np.zeros((oc, layer.ofm_h, layer.ofm_w))
        stride = layer.stride
        k_h, k_w = layer.kernel_h, layer.kernel_w

        cycles = 0
        records: List[CycleRecord] = []
        for group in plan.window_groups:
            vector = np.empty(d * rows_per_copy)
            for copy, win_index in enumerate(group):
                wy, wx = divmod(win_index, layer.ofm_w)
                patch = padded[:, wy * stride:wy * stride + k_h,
                               wx * stride:wx * stride + k_w]
                vector[copy * rows_per_copy:(copy + 1) * rows_per_copy] = (
                    patch.reshape(-1))
            out = crossbar.compute(vector)
            for copy, win_index in enumerate(group):
                wy, wx = divmod(win_index, layer.ofm_w)
                ofm[:, wy, wx] = out[copy * oc:(copy + 1) * oc]
            cycles += 1
            if self.record_trace:
                records.append(CycleRecord(
                    ar=0, ac=0, positions=1,
                    rows=plan.rows_used, cols=plan.cols_used,
                    cells=int(mask.sum())))
        if cycles != plan.total_cycles:
            raise MappingError(
                f"executed {cycles} cycles, plan says {plan.total_cycles}")
        trace = ExecutionTrace(tuple(records)) if self.record_trace else None
        return ExecutionResult(
            ofm=ofm, cycles=cycles,
            rows_driven=cycles * plan.rows_used,
            cols_read=cycles * plan.cols_used,
            active_cells=cycles * int(mask.sum()),
            programmings=1, array_cols=plan.solution.array.cols,
            trace=trace)
