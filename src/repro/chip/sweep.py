"""Batched chip-level planning: the greedy allocator over many budgets.

:func:`~repro.chip.pipeline.plan_pipeline`'s min-max greedy answers one
question per call — *the* bottleneck for *one* array count — by popping
a ``heapq`` once per replica granted.  Sweep studies and Pareto
frontiers ask it over a whole probe grid, and with budgets in the
millions a single probe can mean hundreds of thousands of heap
operations.

A :class:`ChipLattice` precomputes everything about the greedy that
does **not** depend on the budget and answers every probe from it:

* each stage's latency ``ceil(N_PW / replicas)`` is a non-increasing
  step function of its replica count, so its whole upgrade history is
  a *staircase* of ``O(sqrt(N_PW))`` levels — replica ranges sharing
  one latency — computed once per stage by divisor enumeration;
* the greedy always upgrades the current-bottleneck stage (ties:
  lowest stage index), so the order in which upgrades are *considered*
  is budget-independent: all staircases merged by
  ``(latency descending, stage ascending, replica ascending)``.  The
  merged sequence is grouped into runs of equal-cost upgrades
  (``tiles x repeats`` arrays per replica) of one stage at one level;
* a probe then replays the merged groups against its own budget.  A
  stage whose next upgrade is unaffordable drops out permanently —
  exactly the greedy's ``step > budget`` skip — and everything else
  keeps upgrading, so the replay is bit-identical to the ``heapq``
  run (property-tested against it on randomized networks).

:meth:`ChipLattice.sweep` is the one replay: it answers a whole
**vector** of array counts in one scan over the merged groups, every
probe's budget/replica state advanced as NumPy vectors
(:meth:`ChipLattice.outcome` is a one-probe sweep).  The inverse
question — the fewest arrays meeting a bottleneck target ``T`` — needs
no replay at all: :meth:`ChipLattice.min_arrays` answers it in closed
form, ``B(T) = sum_s ceil(n_pw_s / T) * step_s``.  Neither does the
Pareto frontier: at every breakpoint budget ``B(L)`` the greedy holds
exactly ``ceil(n_pw_s / L)`` replicas of each stage, so
:meth:`ChipLattice.frontier_sweep` reads the frontier's replica rows
straight off that matrix and prices them with the same outcome
arithmetic :meth:`~ChipLattice.sweep` uses.

>>> from repro.core import PIMArray
>>> from repro.networks import resnet18
>>> lat = ChipLattice.for_network(resnet18(), PIMArray.square(512))
>>> lat.outcome(64).bottleneck_cycles      # == plan_pipeline(..., 64)
81
>>> sweep = lat.sweep([32, 64, 256])
>>> sweep.bottleneck_cycles.tolist()
[243, 81, 18]
>>> lat.min_arrays(81)                     # fewest arrays meeting 81
64
>>> front = lat.frontier_sweep(64)         # breakpoints, no replay
>>> front.num_arrays[-3:].tolist(), front.bottleneck_cycles[-3:].tolist()
([58, 59, 64], [90, 85, 81])
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union, overload)

import numpy as np

from ..core.cache import frozen_arrays
from ..core.cost import CostParams, cost_report
from ..core.lattice import INFEASIBLE
from ..core.types import ConfigurationError, ceil_div
from ..search.result import MappingSolution
from .allocation import residency_arrays

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..api.engine import MappingEngine
    from ..core.array import PIMArray
    from ..core.layer import ConvLayer
    from ..runtime.deadline import Deadline

__all__ = ["ChipLattice", "ChipOutcome", "ChipSweep", "chip_lattice"]


def _concat_sweeps(blocks: "List[ChipSweep]") -> "ChipSweep":
    """Concatenate chunked :class:`ChipSweep` blocks (probe order kept)."""
    def cat(field: str) -> Optional[np.ndarray]:
        parts = [getattr(block, field) for block in blocks]
        if parts[0] is None:
            return None
        return np.concatenate(parts)

    return ChipSweep(
        num_arrays=np.concatenate([b.num_arrays for b in blocks]),
        feasible=np.concatenate([b.feasible for b in blocks]),
        bottleneck_cycles=np.concatenate(
            [b.bottleneck_cycles for b in blocks]),
        fill_latency_cycles=np.concatenate(
            [b.fill_latency_cycles for b in blocks]),
        arrays_used=np.concatenate([b.arrays_used for b in blocks]),
        cells_used=cat("cells_used"),
        energy_nj=cat("energy_nj"),
        latency_us=cat("latency_us"),
    )


def _sweep_prefix(sweep: "ChipSweep", stop: int) -> "ChipSweep":
    """The first *stop* probes of *sweep*, as views of its vectors."""
    vectors = {f.name: getattr(sweep, f.name) for f in fields(sweep)}
    return ChipSweep(**{name: None if vector is None else vector[:stop]
                        for name, vector in vectors.items()})


@dataclass(frozen=True)
class ChipOutcome:
    """The greedy plan's headline numbers for one array count.

    ``cells_used`` is the silicon-area proxy (crossbar cells consumed,
    per-stage geometries honoured); ``energy_nj`` / ``latency_us`` are
    populated only when the lattice was built with
    :class:`~repro.core.cost.CostParams` (see
    :meth:`ChipLattice.for_solutions`).
    """

    num_arrays: int
    bottleneck_cycles: int
    fill_latency_cycles: int
    arrays_used: int
    cells_used: int = 0
    energy_nj: Optional[float] = None
    latency_us: Optional[float] = None

    @property
    def throughput_per_kcycle(self) -> float:
        """Steady-state inferences per thousand chip cycles."""
        return 1000.0 / self.bottleneck_cycles


@dataclass(frozen=True)
class ChipSweep:
    """Greedy plan outcomes over a vector of chip array counts.

    Vectors are aligned with :attr:`num_arrays`; where :attr:`feasible`
    is ``False`` (the budget cannot even hold the weights resident) the
    cycle vectors carry the ``INFEASIBLE`` sentinel and
    :attr:`arrays_used` is 0.
    """

    #: Probed chip array counts: ``(A,)`` int64.
    num_arrays: np.ndarray
    #: Whether the residency floor fits each budget: ``(A,)`` bool.
    feasible: np.ndarray
    #: Steady-state pipeline bottleneck per probe: ``(A,)`` int64.
    bottleneck_cycles: np.ndarray
    #: Single-image fill latency per probe: ``(A,)`` int64.
    fill_latency_cycles: np.ndarray
    #: Crossbars consumed (repeats included) per probe: ``(A,)`` int64.
    arrays_used: np.ndarray
    #: Crossbar cells consumed per probe (area proxy): ``(A,)`` int64;
    #: 0 where infeasible.
    cells_used: Optional[np.ndarray] = None
    #: Per-inference compute energy per probe: ``(A,)`` float64, NaN
    #: where infeasible; ``None`` when the lattice carries no cost
    #: params.  Energy is budget-independent (replicas split the same
    #: total work), so feasible probes all carry the plan's constant.
    energy_nj: Optional[np.ndarray] = None
    #: Steady-state bottleneck latency per probe in microseconds:
    #: ``(A,)`` float64, NaN where infeasible; ``None`` uncosted.
    latency_us: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.num_arrays.size)

    def outcome(self, index: int) -> Optional[ChipOutcome]:
        """The probe at *index* as a :class:`ChipOutcome` (``None`` when
        infeasible)."""
        if not bool(self.feasible[index]):
            return None
        return ChipOutcome(
            num_arrays=int(self.num_arrays[index]),
            bottleneck_cycles=int(self.bottleneck_cycles[index]),
            fill_latency_cycles=int(self.fill_latency_cycles[index]),
            arrays_used=int(self.arrays_used[index]),
            cells_used=(int(self.cells_used[index])
                        if self.cells_used is not None else 0),
            energy_nj=(float(self.energy_nj[index])
                       if self.energy_nj is not None else None),
            latency_us=(float(self.latency_us[index])
                        if self.latency_us is not None else None))

    def rows(self) -> List[Dict[str, object]]:
        """Per-probe table for reports (infeasible probes marked)."""
        costed = self.energy_nj is not None
        out: List[Dict[str, object]] = []
        for i in range(len(self)):
            point = self.outcome(i)
            if point is None:
                row: Dict[str, object] = {
                    "arrays": int(self.num_arrays[i]),
                    "bottleneck": "-", "fill": "-", "used": "-"}
                if costed:
                    row["energy (nJ)"] = "-"
            else:
                row = {"arrays": point.num_arrays,
                       "bottleneck": point.bottleneck_cycles,
                       "fill": point.fill_latency_cycles,
                       "used": point.arrays_used}
                if costed:
                    row["energy (nJ)"] = round(point.energy_nj, 3)
            out.append(row)
        return out


def _stage_staircase(n_pw: int) -> List[Tuple[int, int]]:
    """One stage's upgrade staircase: ``(latency, count)`` runs.

    Consecutive runs cover consecutive replica counts from 1: run
    ``(L, c)`` holds the ``c`` upgrades each considered while the
    stage's latency is ``L = ceil(n_pw / k)``.  Runs stop at latency 2:
    a stage at latency 1 is never upgraded (the greedy's ``latency ==
    1`` skip), and latencies are enumerated by the divisor trick, so
    the staircase has ``O(sqrt(n_pw))`` runs.
    """
    runs: List[Tuple[int, int]] = []
    k = 1
    while k < n_pw:
        latency = ceil_div(n_pw, k)
        if latency <= 1:
            break
        k_hi = ceil_div(n_pw, latency - 1) - 1  # last k at this latency
        k_hi = min(k_hi, n_pw - 1)
        runs.append((latency, k_hi - k + 1))
        k = k_hi + 1
    return runs


@dataclass(frozen=True)
class ChipLattice:
    """Budget-independent precomputation of the min-max greedy.

    Build with :meth:`for_solutions` (per-layer mappings in network
    order, e.g. from :meth:`repro.api.MappingEngine.solve`) or
    :meth:`for_network`; evaluate with :meth:`sweep` (a whole probe
    vector, one pass) or :meth:`outcome` (one array count), size a
    chip for a bottleneck target with :meth:`min_arrays`, and price
    the Pareto breakpoints with :meth:`frontier_sweep`.

    The precomputed state is the merged upgrade-group sequence
    described in the module docstring: ``group_stage`` /
    ``group_cost`` / ``group_count`` / ``group_latency`` are aligned
    ``(G,)`` vectors in greedy consideration order.
    """

    #: The per-layer solutions the stages were derived from, in order.
    solutions: Tuple[MappingSolution, ...]
    #: Per stage: parallel-window positions, residency tiles, block
    #: repeats, and replica step cost ``tiles * repeats``: ``(S,)``.
    n_pw: np.ndarray
    tiles: np.ndarray
    repeats: np.ndarray
    step: np.ndarray
    #: Merged upgrade groups (see module docstring): ``(G,)`` each.
    group_stage: np.ndarray
    group_cost: np.ndarray
    group_count: np.ndarray
    #: The staircase latency ``ceil(n_pw / k)`` each group's upgrades
    #: are considered at: ``(G,)``, non-increasing.
    group_latency: np.ndarray
    #: Crossbar cells of each stage's own array geometry: ``(S,)``
    #: int64.  Heterogeneous pools feed mixed-geometry solutions, so
    #: area accounting must be per stage, not per chip.
    cells: Optional[np.ndarray] = None
    #: Cost constants the energy figures were priced with (``None`` for
    #: an uncosted lattice — energy/latency vectors stay ``None``).
    cost_params: Optional[CostParams] = None
    #: Per-inference compute energy of *one repeat* of each stage:
    #: ``(S,)`` float64 (multiply by :attr:`repeats` for the block's
    #: total).  Budget-independent: replicas split the same
    #: ``N_PW x tiles`` firings, they do not add any.  Kept per repeat
    #: so :attr:`total_energy_nj` can sum the exact per-repeat terms —
    #: rounding ``energy * repeats`` first would break the
    #: grouped-vs-unrolled invariance by 1 ulp.
    stage_energy_nj: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def for_solutions(cls, solutions: Sequence[MappingSolution], *,
                      cost_params: Optional[CostParams] = None
                      ) -> "ChipLattice":
        """Precompute the greedy's merged staircases for *solutions*.

        *solutions* may mix array geometries (heterogeneous pools): the
        staircase merge never looks at the arrays, only at each stage's
        ``(n_pw, tiles, repeats)``, and area accounting is per stage.
        With *cost_params* every stage is priced once through the
        scalar :func:`~repro.core.cost.cost_report` oracle (compute
        energy only — programming happens once at deployment), so every
        probe of every sweep reads energy off precomputed constants yet
        stays bit-identical to a per-point ``cost_report`` replay.

        >>> from repro.api import default_engine
        >>> from repro.core import PIMArray
        >>> from repro.networks import resnet18
        >>> eng, arr = default_engine(), PIMArray.square(512)
        >>> sols = [eng.solve(l, arr, "vw-sdk") for l in resnet18()]
        >>> ChipLattice.for_solutions(sols).floor_arrays
        23
        """
        solutions = tuple(solutions)
        if not solutions:
            raise ValueError("ChipLattice needs >= 1 per-layer solution")
        n_pw = np.asarray([s.breakdown.n_pw for s in solutions],
                          dtype=np.int64)
        tiles = np.asarray([residency_arrays(s) for s in solutions],
                           dtype=np.int64)
        repeats = np.asarray([s.layer.repeats for s in solutions],
                             dtype=np.int64)
        step = tiles * repeats
        cells = np.asarray([s.array.cells for s in solutions],
                           dtype=np.int64)
        stage_energy = None
        if cost_params is not None:
            stage_energy = np.asarray(
                [cost_report(s, cost_params).compute_energy_nj
                 for s in solutions], dtype=np.float64)

        # Size the staircase vectors first, then fill them in place.
        staircases = [_stage_staircase(p) for p in n_pw.tolist()]
        total = sum(len(runs) for runs in staircases)
        lat_v = np.empty(total, dtype=np.int64)
        stage_v = np.empty(total, dtype=np.int64)
        cost_v = np.empty(total, dtype=np.int64)
        count_v = np.empty(total, dtype=np.int64)
        step_list = step.tolist()
        pos = 0
        for stage, runs in enumerate(staircases):
            for latency, count in runs:
                lat_v[pos] = latency
                stage_v[pos] = stage
                cost_v[pos] = step_list[stage]
                count_v[pos] = count
                pos += 1
        # Greedy consideration order: latency desc, stage asc (a stage
        # has one run per latency, so the order is total).
        order = np.lexsort((stage_v, -lat_v))
        stage_v, cost_v = stage_v[order], cost_v[order]
        count_v, lat_v = count_v[order], lat_v[order]
        # Instances are shared via the engine memo: freeze every vector.
        vectors = [n_pw, tiles, repeats, step, cells,
                   stage_v, cost_v, count_v, lat_v]
        if stage_energy is not None:
            vectors.append(stage_energy)
        frozen_arrays(vectors)
        return cls(solutions=solutions, n_pw=n_pw, tiles=tiles,
                   repeats=repeats, step=step, group_stage=stage_v,
                   group_cost=cost_v, group_count=count_v,
                   group_latency=lat_v, cells=cells,
                   cost_params=cost_params, stage_energy_nj=stage_energy)

    @classmethod
    def for_network(cls, network: "Iterable[ConvLayer]", array: "PIMArray",
                    scheme: str = "vw-sdk", *,
                    engine: Optional["MappingEngine"] = None,
                    cost_params: Optional[CostParams] = None
                    ) -> "ChipLattice":
        """Build from a network by solving each layer through *engine*
        (the shared :func:`repro.api.default_engine` by default)."""
        if engine is None:
            from ..api.engine import default_engine
            engine = default_engine()
        return cls.for_solutions(
            [engine.solve(layer, array, scheme) for layer in network],
            cost_params=cost_params)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_stages(self) -> int:
        """Pipeline stages (network layers)."""
        return int(self.n_pw.size)

    @property
    def num_groups(self) -> int:
        """Merged equal-cost upgrade runs shared by every probe."""
        return int(self.group_stage.size)

    @property
    def floor_arrays(self) -> int:
        """Residency minimum — the smallest feasible chip."""
        return int(self.step.sum())

    @property
    def total_energy_nj(self) -> Optional[float]:
        """Per-inference compute energy of the whole pipeline.

        Correctly-rounded (``math.fsum``) sum of the per-*repeat*
        scalar ``cost_report`` figures (a block with ``repeats=r``
        contributes its exact per-repeat energy ``r`` times), so the
        total is invariant to stage order and to whether repeated
        blocks are grouped (``repeats=r``) or unrolled into ``r``
        stages.  ``None`` for an uncosted lattice.
        """
        if self.stage_energy_nj is None:
            return None
        return math.fsum(
            np.repeat(self.stage_energy_nj, self.repeats).tolist())

    # ------------------------------------------------------------------
    # Vectorized replay (probe grids)
    # ------------------------------------------------------------------
    def replicas_for(self, counts: Sequence[int]) -> np.ndarray:
        """Final greedy replica counts per probe and stage: ``(A, S)``.

        Infeasible probes (budget below :attr:`floor_arrays`) report
        one replica per stage; mask them with ``counts >= floor``.
        The returned array is freshly allocated (callers may keep it).
        """
        counts = np.asarray(list(counts), dtype=np.int64)
        budget = np.maximum(counts - self.floor_arrays, 0)
        replicas = np.ones((counts.size, self.num_stages), dtype=np.int64)
        alive = np.ones(replicas.shape, dtype=np.bool_)
        stages = self.group_stage.tolist()
        costs = self.group_cost.tolist()
        group_counts = self.group_count.tolist()
        for g in range(self.num_groups):
            stage, cost, count = stages[g], costs[g], group_counts[g]
            live = alive[:, stage]
            take = np.where(live, np.minimum(count, budget // cost), 0)
            replicas[:, stage] += take
            budget -= take * cost
            # The greedy drops a stage at its first unaffordable step.
            alive[:, stage] = live & (take == count)
        return replicas

    #: Probes per chunk of a :meth:`sweep` — bounds the ``(A, S)``
    #: scratch and doubles as the deadline-checkpoint granularity.
    SWEEP_CHUNK = 4096

    def sweep(self, counts: Sequence[int],
              deadline: Optional["Deadline"] = None) -> ChipSweep:
        """Greedy outcomes for a whole vector of array counts.

        One scan over the merged groups, every probe advanced as NumPy
        vectors — bit-identical per probe to
        :func:`~repro.chip.pipeline.plan_pipeline` on the same
        solutions.  The ``(A, S)`` temporaries are allocated per chunk
        and dropped with it; the returned :class:`ChipSweep` vectors
        are fresh allocations.

        Probe grids are processed in :data:`SWEEP_CHUNK` chunks; each
        chunk boundary is a cooperative cancellation checkpoint when a
        :class:`~repro.runtime.deadline.Deadline` is given — an
        expired budget raises ``DeadlineExceededError`` whose
        ``partial`` carries ``{"completed", "total", "sweep"}`` with
        the :class:`ChipSweep` of the probes already finished (or
        ``None`` when none are).

        >>> from repro.core import PIMArray
        >>> from repro.networks import resnet18
        >>> lat = ChipLattice.for_network(resnet18(), PIMArray.square(512))
        >>> lat.sweep([16, 64]).feasible.tolist()
        [False, True]
        """
        counts = np.asarray(list(counts), dtype=np.int64)
        if deadline is None and counts.size <= self.SWEEP_CHUNK:
            return self._outcomes(counts, self.replicas_for(counts))
        blocks: List[ChipSweep] = []
        for start in range(0, counts.size, self.SWEEP_CHUNK):
            if deadline is not None:
                deadline.check(
                    partial={"completed": start, "total": int(counts.size),
                             "sweep": (_concat_sweeps(blocks)
                                       if blocks else None)},
                    where="ChipLattice.sweep")
            block = counts[start:start + self.SWEEP_CHUNK]
            blocks.append(self._outcomes(block, self.replicas_for(block)))
        if len(blocks) == 1:
            return blocks[0]
        return _concat_sweeps(blocks)

    def _outcomes(self, counts: np.ndarray,
                  replicas: np.ndarray) -> ChipSweep:
        """Price ``(A, S)`` per-stage *replicas* held at budgets *counts*.

        The one copy of the latency / fill / arrays / cells / energy
        arithmetic, shared by :meth:`sweep` (replicas replayed by
        :meth:`replicas_for`) and :meth:`frontier_sweep` (replicas read
        off the closed form).
        """
        scratch = np.empty(replicas.shape, dtype=np.int64)
        latency = np.empty(replicas.shape, dtype=np.int64)
        np.floor_divide(np.negative(self.n_pw[None, :]), replicas,
                        out=latency)
        np.negative(latency, out=latency)
        feasible = counts >= self.floor_arrays
        np.subtract(replicas, 1, out=scratch)
        np.multiply(scratch, self.step[None, :], out=scratch)
        spent = scratch.sum(axis=1)
        bottleneck = np.where(feasible, latency.max(axis=1), INFEASIBLE)
        np.multiply(replicas, (self.step * self.cells)[None, :],
                    out=scratch)
        cells = scratch.sum(axis=1)
        fill = latency.sum(axis=1)
        energy_v = latency_v = None
        if self.cost_params is not None:
            energy_v = np.where(feasible, self.total_energy_nj, np.nan)
            period = self.cost_params.cycle_time_ns
            latency_v = np.where(
                feasible, bottleneck.astype(np.float64) * period / 1000.0,
                np.nan)
        return ChipSweep(
            num_arrays=counts,
            feasible=feasible,
            bottleneck_cycles=bottleneck,
            fill_latency_cycles=np.where(feasible, fill, INFEASIBLE),
            arrays_used=np.where(feasible, self.floor_arrays + spent, 0),
            cells_used=np.where(feasible, cells, 0),
            energy_nj=energy_v,
            latency_us=latency_v,
        )

    # ------------------------------------------------------------------
    # Single probes and inverse sizing
    # ------------------------------------------------------------------
    def outcome(self, num_arrays: int) -> Optional[ChipOutcome]:
        """The greedy plan's numbers for one array count.

        A one-probe :meth:`sweep`.  ``None`` when the budget cannot hold
        the weights resident — mirroring
        :func:`~repro.chip.pipeline.plan_pipeline` raising
        :class:`~repro.chip.pipeline.InsufficientArraysError`.

        >>> from repro.core import PIMArray
        >>> from repro.networks import resnet18
        >>> lat = ChipLattice.for_network(resnet18(), PIMArray.square(512))
        >>> lat.outcome(lat.floor_arrays - 1) is None
        True
        >>> lat.outcome(64).arrays_used
        64
        """
        return self.sweep([num_arrays]).outcome(0)

    def bottleneck_at(self, num_arrays: int) -> Optional[int]:
        """Steady-state bottleneck for one count (``None``: infeasible)."""
        point = self.outcome(num_arrays)
        return None if point is None else point.bottleneck_cycles

    @overload
    def min_arrays(self, bottleneck: int) -> int: ...

    @overload
    def min_arrays(self, bottleneck: np.ndarray) -> np.ndarray: ...

    def min_arrays(self, bottleneck: Union[int, np.ndarray]
                   ) -> Union[int, np.ndarray]:
        """Fewest arrays whose greedy plan meets *bottleneck*: ``B(T)``.

        Meeting a target ``T`` takes ``ceil(n_pw_s / T)`` replicas of
        stage ``s``, so no plan meets it with fewer than ``B(T) = sum_s
        ceil(n_pw_s / T) * step_s`` arrays.  At exactly ``B(T)`` the
        greedy makes precisely those upgrades: every merged group above
        ``T`` comes earlier in consideration order and the budget
        covers them exactly.  So ``B(T)`` is the smallest count whose
        plan meets ``T`` (the residency floor once ``T`` reaches every
        stage's ``n_pw``).  Takes one target ``>= 1`` or an ``(L,)``
        int vector of them; a target below 1 raises
        :class:`~repro.core.types.ConfigurationError`.

        >>> from repro.core import PIMArray
        >>> from repro.networks import resnet18
        >>> lat = ChipLattice.for_network(resnet18(), PIMArray.square(512))
        >>> lat.min_arrays(200)
        36
        >>> lat.min_arrays(np.array([10**6, 1])).tolist() == [
        ...     lat.floor_arrays, int((lat.n_pw * lat.step).sum())]
        True
        """
        targets = np.asarray(bottleneck, dtype=np.int64)
        if (targets < 1).any():
            raise ConfigurationError(
                f"bottleneck targets must be >= 1, got "
                f"{int(targets.min())}")
        needed = -(-self.n_pw // targets[..., None])
        budgets = (needed * self.step).sum(axis=-1)
        return int(budgets) if budgets.ndim == 0 else budgets

    # ------------------------------------------------------------------
    # Frontier breakpoints (chip_pareto support)
    # ------------------------------------------------------------------
    def frontier_latencies(self) -> np.ndarray:
        """Every per-stage latency value any budget can realise, sorted.

        The union over stages of ``ceil(n_pw / k)`` for ``k = 1..n_pw``
        (the staircase levels plus the fully-replicated latency 1) —
        ``O(stages x sqrt(n_pw))`` values, read off
        :attr:`group_latency`.  Every achievable pipeline bottleneck is
        one of these, since the bottleneck is a maximum of per-stage
        staircase levels.
        """
        return np.unique(np.append(self.group_latency, 1))

    def frontier_sweep(self, max_arrays: Optional[int] = None
                       ) -> ChipSweep:
        """Greedy outcomes at every Pareto breakpoint budget, no replay.

        Equal to ``sweep(frontier_counts(max_arrays))`` field for field,
        but the replicas are read off the closed form: meeting a
        candidate bottleneck ``L`` (:meth:`frontier_latencies`) takes
        ``needed = ceil(n_pw / L)`` replicas per stage, and at the
        :meth:`min_arrays` budget ``B(L) = sum(needed * step)`` the
        greedy holds exactly those.  Equal budgets have equal rows
        (``needed`` is monotone in ``L`` and every step is positive),
        so deduplicating budgets keeps one row each.  Rows come back
        sorted by budget ascending — bottlenecks strictly descending —
        capped at *max_arrays* when given (possibly empty, when even
        the residency floor exceeds it).

        The uncapped rows are computed once per lattice, on first use,
        and frozen; every call returns read-only views of them (a cap
        keeps the prefix of budgets ``<= max_arrays``, found by
        ``searchsorted``), never fresh allocations.

        >>> from repro.core import PIMArray
        >>> from repro.networks import resnet18
        >>> lat = ChipLattice.for_network(resnet18(), PIMArray.square(512))
        >>> front = lat.frontier_sweep()
        >>> int(front.num_arrays[0]) == lat.floor_arrays
        True
        >>> int(front.bottleneck_cycles[-1])
        1
        >>> bool((front.arrays_used == front.num_arrays).all())
        True
        >>> front.num_arrays.flags.writeable
        False
        """
        front = self.__dict__.get("_frontier")
        if front is None:
            needed = -(-self.n_pw // self.frontier_latencies()[:, None])
            budgets, first = np.unique((needed * self.step).sum(axis=1),
                                       return_index=True)
            front = self._outcomes(budgets, needed[first])
            vectors = (getattr(front, f.name) for f in fields(front))
            frozen_arrays(v for v in vectors if v is not None)
            object.__setattr__(self, "_frontier", front)
        if max_arrays is None:
            return front
        return _sweep_prefix(front, int(np.searchsorted(
            front.num_arrays, max_arrays, side="right")))

    def frontier_counts(self, max_arrays: Optional[int] = None
                        ) -> np.ndarray:
        """The canonical budget grid behind the chip Pareto frontier.

        The :meth:`min_arrays` budget ``B(L)`` of every candidate
        bottleneck ``L`` in :meth:`frontier_latencies` — the probes of
        :meth:`frontier_sweep`.  Sweeping these budgets visits every
        non-dominated ``(arrays, cells, bottleneck)`` point any budget
        could produce — independent of stage order or repeat grouping.
        Returned sorted ascending, deduplicated, capped at *max_arrays*
        when given (possibly empty, when even the residency floor
        exceeds it).

        >>> from repro.core import PIMArray
        >>> from repro.networks import resnet18
        >>> lat = ChipLattice.for_network(resnet18(), PIMArray.square(512))
        >>> counts = lat.frontier_counts()
        >>> int(counts[0]) == lat.floor_arrays
        True
        >>> int(lat.sweep(counts).bottleneck_cycles[-1])
        1
        """
        return self.frontier_sweep(max_arrays).num_arrays


def chip_lattice(solutions: Sequence[MappingSolution]) -> ChipLattice:
    """Convenience alias for :meth:`ChipLattice.for_solutions`."""
    return ChipLattice.for_solutions(solutions)
