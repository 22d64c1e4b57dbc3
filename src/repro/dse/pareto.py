"""Pareto analysis over the window design space.

A window that minimises cycles is not always the one that maximises
utilization (smaller windows waste fewer cells on the last channel
tile).  :func:`window_pareto` extracts the cycles-vs-utilization
frontier of a layer's full window landscape, which DSE examples use to
show how sharp — or flat — the trade-off is.  It reads cycles *and* the
eq. 9 utilization straight off the vectorized lattice (closed-form
whole-channel tile accounting, see
:meth:`repro.core.lattice.CycleLattice.mean_utilization_pct`).

Every front in this module is pruned by the one O(N log N) skyline of
:mod:`repro.core.skyline`; the generic O(n^2) :func:`pareto_front`
survives only as the reference the tests compare against.  The tie
rule: a point is dropped when another is ``<=`` on every objective and
``<`` on one, and of exact duplicates the skyline keeps only the first
— the array and chip fronts report that, while :func:`window_pareto`
re-admits every window tied with a kept one, as :func:`pareto_front`
would.

:func:`array_pareto` answers the *hardware*-side question — which
candidate array shapes are worth building for a network — by sweeping
every candidate through one batched
:class:`~repro.core.sweep.NetworkLattice` evaluation
(:meth:`~repro.api.engine.MappingEngine.sweep_cycles`) instead of
re-solving ``candidates x layers`` mapping problems, then extracting
the cells-vs-cycles frontier.

VW-SDK's headline result is that non-square windows unlock non-square
*array* trade-offs, so the candidate axis is explored natively:
:func:`array_candidates` generates ``(rows, cols)`` grids with the two
sides varied independently under a total-cells budget, and
:func:`array_pareto` generates them itself when no explicit candidate
list is passed.  The whole non-square frontier still costs one batched
lattice call — candidate count only widens the vectorized sweep.

:func:`chip_pareto` lifts the frontier to the *chip* level and opens
the paper's energy axis (Section II: AD conversion dominates PIM
energy, so fewer cycles mean less energy): candidate deployment plans
— homogeneous geometries and, with ``pools=True``, the heterogeneous
best-fit assignment from :mod:`repro.chip.pools` — are each priced at
the closed-form breakpoint budgets of one memoized
:class:`~repro.chip.sweep.ChipLattice` (replicas read off
``ceil(n_pw / L)``, no greedy replay), and one skyline prune over the
union's stacked ``(cells, energy, bottleneck)`` rows extracts the 3-D
minimising front before any point object is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    TypeVar, Union)

import numpy as np

from ..api.engine import MappingEngine, default_engine
from ..chip.pools import PoolPlan, pool_plans
from ..core.array import PIMArray
from ..core.backend import Backend
from ..core.cost import DEFAULT_COST_PARAMS, CostParams
from ..core.layer import ConvLayer
from ..core.skyline import skyline
from ..core.types import ConfigurationError, require_positive_int
from ..core.utilization import utilization_report
from ..networks.layerset import Network
from ..search import CandidateSpace, enumerate_feasible
from ..search.result import MappingSolution

__all__ = ["ParetoPoint", "ArrayDesignPoint", "ChipDesignPoint",
           "pareto_front", "window_pareto", "array_pareto",
           "array_candidates", "chip_pareto", "zoo_pareto",
           "DEFAULT_SIDES"]

#: Default side-length ladder for :func:`array_candidates`: powers of
#: two from 32 to 1024 interleaved with their 1.5x midpoints — fine
#: enough to expose aspect-ratio trade-offs, coarse enough that the
#: full non-square cross product stays a one-call batched sweep.
DEFAULT_SIDES = (32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024)

T = TypeVar("T")


def pareto_front(items: Sequence[T],
                 objectives: Callable[[T], Tuple[float, ...]]
                 ) -> List[T]:
    """Minimising Pareto front of *items* under *objectives*.

    An item is kept when no other item is <= on every objective and <
    on at least one.

    >>> pareto_front([(1, 5), (2, 2), (3, 3)], lambda p: p)
    [(1, 5), (2, 2)]
    """
    front: List[T] = []
    for candidate in items:
        c_obj = objectives(candidate)
        dominated = False
        for other in items:
            if other is candidate:
                continue
            o_obj = objectives(other)
            if (all(o <= c for o, c in zip(o_obj, c_obj))
                    and any(o < c for o, c in zip(o_obj, c_obj))):
                dominated = True
                break
        if not dominated:
            front.append(candidate)
    return front


@dataclass(frozen=True)
class ArrayDesignPoint:
    """One candidate array on the cells / cycles frontier."""

    array: PIMArray
    cycles: int

    @property
    def cells(self) -> int:
        """Silicon cost proxy: total crossbar cells."""
        return self.array.cells


def array_candidates(max_cells: int, *,
                     sides: Optional[Sequence[int]] = None,
                     square_only: bool = False) -> List[PIMArray]:
    """Candidate arrays under a silicon budget, sides explored freely.

    Generates every ``rows x cols`` combination of *sides* (the
    :data:`DEFAULT_SIDES` ladder unless given) whose total cell count
    fits *max_cells* — rows and cols vary **independently**, so tall
    and wide rectangles enter the design space on equal footing with
    squares.  ``square_only=True`` restricts to the diagonal (the
    pre-non-square behaviour, kept for A/B comparisons).  Candidates
    come back sorted by ``(cells, rows)`` so equal-cost shapes stay
    adjacent in reports.  *max_cells* and every side must be positive
    integers and a given *sides* must be non-empty, or
    :class:`~repro.core.types.ConfigurationError` is raised.

    >>> [str(a) for a in array_candidates(128 * 128, sides=(64, 128, 256))]
    ['64x64', '64x128', '128x64', '64x256', '128x128', '256x64']
    >>> [str(a) for a in array_candidates(128 * 128, sides=(64, 128, 256),
    ...                                   square_only=True)]
    ['64x64', '128x128']
    """
    max_cells = require_positive_int("max_cells", max_cells)
    ladder = (tuple(require_positive_int("sides", s) for s in sides)
              if sides is not None else DEFAULT_SIDES)
    if not ladder:
        raise ConfigurationError("sides must name at least one side length")
    if square_only:
        chosen = [PIMArray.square(s) for s in ladder if s * s <= max_cells]
    else:
        chosen = [PIMArray(r, c) for r in ladder for c in ladder
                  if r * c <= max_cells]
    return sorted(chosen, key=lambda a: (a.cells, a.rows))


def _candidate_grid(max_cells: int, sides: Optional[Sequence[int]],
                    square_only: bool) -> List[PIMArray]:
    """:func:`array_candidates`, raising :class:`ConfigurationError`
    when no candidate fits the budget."""
    chosen = array_candidates(max_cells, sides=sides,
                              square_only=square_only)
    if not chosen:
        raise ConfigurationError(
            f"no candidate geometry fits max_cells={max_cells}"
            + (f" with sides={tuple(sides)}" if sides else "")
            + "; raise the budget or shrink the sides")
    return chosen


def array_pareto(network: Network,
                 candidates: Optional[Sequence[PIMArray]] = None,
                 scheme: str = "vw-sdk", *,
                 max_cells: int = 512 * 512,
                 sides: Optional[Sequence[int]] = None,
                 square_only: bool = False,
                 engine: Optional[MappingEngine] = None,
                 backend: Union[str, Backend, None] = None
                 ) -> List[ArrayDesignPoint]:
    """Cells-vs-cycles frontier of candidate arrays for *network*.

    All candidates are evaluated in one batched sweep over the
    network's shared lattice (engine fallback for non-batchable
    schemes); *backend* overrides the engine's compute backend for
    this sweep (``"numpy"`` / ``"numba"`` / ``"auto"``, all
    bit-identical).  Returned points are sorted by cell count
    ascending / cycles descending; dominated and duplicate-cost
    candidates are dropped (the cheapest-then-first candidate wins
    each cell count).

    When *candidates* is ``None`` they are generated by
    :func:`array_candidates` under the *max_cells* budget —
    non-square by default; pass ``square_only=True`` for the
    squares-only baseline frontier.  Because squares are a subset of
    the generated grid, the non-square frontier always dominates or
    equals the square-only one point for point.  An empty candidate
    list, given or generated, raises :class:`ConfigurationError`.

    >>> from repro.networks import resnet18
    >>> front = array_pareto(resnet18(),
    ...                      [PIMArray.square(s) for s in (128, 256, 512)])
    >>> [point.cycles for point in front]
    [36310, 10287, 4294]
    """
    eng = engine if engine is not None else default_engine()
    if candidates is None:
        candidates = _candidate_grid(max_cells, sides, square_only)
    if not candidates:
        raise ConfigurationError("array_pareto needs >= 1 candidate array")
    totals = eng.sweep_cycles(network, candidates, scheme, backend)
    cells = np.asarray([a.cells for a in candidates], dtype=np.int64)
    kept = skyline(np.column_stack((cells, totals)))
    # Front cells are distinct, so sorting by cells alone is total.
    return [ArrayDesignPoint(array=candidates[k], cycles=int(totals[k]))
            for k in sorted(kept.tolist(), key=cells.__getitem__)]


def zoo_pareto(networks: Optional[Sequence[str]] = None,
               scheme: str = "vw-sdk", *,
               max_cells: int = 512 * 512,
               sides: Optional[Sequence[int]] = None,
               square_only: bool = False,
               engine: Optional[MappingEngine] = None,
               backend: Union[str, Backend, None] = None
               ) -> Dict[str, List[ArrayDesignPoint]]:
    """Cells-vs-cycles frontiers for the whole model zoo in one pass.

    Generates the non-square :func:`array_candidates` grid **once**
    under the *max_cells* budget and sweeps every requested zoo entry
    (all of :data:`repro.networks.zoo.NETWORKS` by default; pass
    *networks* as a sequence of zoo names to restrict) through it via
    :func:`array_pareto` on one shared engine.  This is the zoo-scale
    batched-DSE entry point: each network costs a single vectorized
    :meth:`~repro.api.engine.MappingEngine.sweep_cycles` call, the
    dominance-pruned window fronts are memoized per conv *geometry* so
    the heavy 224x224 VGG stages are pruned once and reused across
    VGG-11/13/16/19, and sweep temporaries are allocated per chunk of
    arrays, never per probe.  Returns an insertion-ordered
    ``{name: frontier}`` dict.

    >>> fronts = zoo_pareto(["resnet18"], sides=(128, 256, 512),
    ...                     square_only=True)
    >>> [point.cycles for point in fronts["resnet18"]]
    [36310, 10287, 4294]
    """
    from ..networks.zoo import NETWORKS, get_network
    names = list(NETWORKS) if networks is None else list(networks)
    eng = engine if engine is not None else default_engine()
    candidates = _candidate_grid(max_cells, sides, square_only)
    return {name: array_pareto(get_network(name), candidates, scheme,
                               engine=eng, backend=backend)
            for name in names}


@dataclass(frozen=True, init=False)
class ChipDesignPoint:
    """One chip deployment on the cells / energy / latency frontier.

    ``pool`` is the plan label (a geometry string for homogeneous
    plans, ``"mixed"`` for a heterogeneous best-fit assignment);
    ``cells`` the silicon proxy (crossbar cells consumed, per-stage
    geometries honoured); ``energy_nj`` the per-inference compute
    energy (the Section-II conversion-dominated model of
    :mod:`repro.core.cost`); ``bottleneck_cycles`` / ``latency_us`` the
    steady-state pipeline bottleneck.  ``solutions`` carries the
    per-stage mappings so any point can be replayed through the scalar
    ``plan_pipeline`` + ``cost_report`` oracles (the property tests
    do exactly that).  ``accuracy_proxy`` is populated only when
    :func:`chip_pareto` ran with ``fidelity=``: the functional-replay
    score of :mod:`repro.pim.replay` (1.0 = bit-exact under the
    requested noise model).
    """

    pool: str
    num_arrays: int
    cells: int
    energy_nj: float
    bottleneck_cycles: int
    latency_us: float
    solutions: Tuple[MappingSolution, ...] = field(
        default=(), repr=False, compare=False)
    accuracy_proxy: Optional[float] = field(default=None, compare=False)

    def __init__(self, pool: str, num_arrays: int, cells: int,
                 energy_nj: float, bottleneck_cycles: int,
                 latency_us: float,
                 solutions: Tuple[MappingSolution, ...] = (),
                 accuracy_proxy: Optional[float] = None) -> None:
        # The generated frozen __init__ pays one object.__setattr__ per
        # field; a front builds thousands of points, so fill the
        # instance dict in one call.
        self.__dict__.update(
            pool=pool, num_arrays=num_arrays, cells=cells,
            energy_nj=energy_nj, bottleneck_cycles=bottleneck_cycles,
            latency_us=latency_us, solutions=solutions,
            accuracy_proxy=accuracy_proxy)

    @property
    def objectives(self) -> Tuple[int, float, int]:
        """The minimised triple ``(cells, energy_nj, bottleneck)``."""
        return (self.cells, self.energy_nj, self.bottleneck_cycles)


#: The chip-front prune, looked up through this module at call time so
#: a profiler can wrap it.
_non_dominated = skyline

#: The :class:`~repro.chip.sweep.ChipSweep` vectors a chip front reads.
_FRONT_COLUMNS = ("num_arrays", "cells_used", "energy_nj",
                  "bottleneck_cycles", "latency_us")


def chip_pareto(network: Network,
                geometries: Optional[Sequence[PIMArray]] = None,
                scheme: str = "vw-sdk", *,
                pools: bool = False,
                cost_params: Optional[CostParams] = None,
                max_cells: int = 512 * 512,
                sides: Optional[Sequence[int]] = None,
                max_arrays: Optional[int] = None,
                target_bottleneck: Optional[int] = None,
                fidelity: Optional[object] = None,
                engine: Optional[MappingEngine] = None
                ) -> List[ChipDesignPoint]:
    """Cells / energy / latency frontier of chip deployments.

    Couples the batched chip planner with the cost model: every
    candidate plan (one homogeneous plan per usable geometry, plus the
    heterogeneous best-fit plan when ``pools=True``) is priced once at
    the closed-form breakpoint budgets of its memoized
    :class:`~repro.chip.sweep.ChipLattice`, which
    :func:`~repro.chip.pools.pool_plans` hands over on the plan, so no
    lattice is looked up twice
    (:meth:`~repro.chip.sweep.ChipLattice.frontier_sweep`: at each
    budget the greedy holds exactly ``ceil(n_pw / L)`` replicas per
    stage, so no greedy is replayed; each lattice keeps its uncapped
    rows and a cap reads a prefix).  The union's ``(cells,
    energy_nj, bottleneck_cycles)`` rows, plans in order and budgets
    ascending, go through one skyline prune, and
    :class:`ChipDesignPoint` objects are built only for the rows it
    keeps.  Since the union always contains the homogeneous plans, the
    ``pools=True`` frontier dominates-or-equals the homogeneous one
    point for point.

    When *geometries* is ``None`` the square ladder under *max_cells*
    is used (:func:`array_candidates` with ``square_only=True``); pass
    an explicit list — e.g. ``array_candidates(budget)`` — to open the
    non-square axis.  *max_arrays* bounds the probed budgets and
    *target_bottleneck* keeps only points meeting a latency target;
    when no candidate point survives either bound, the typed
    :class:`~repro.dse.requirements.InfeasibleTargetError` is raised
    with the best achievable bottleneck attached (``None`` when even
    the residency floors exceed *max_arrays*).  Either bound that is
    not a positive integer raises
    :class:`~repro.core.types.ConfigurationError`.

    Points come back sorted by cells ascending, bottleneck descending —
    along a (homogeneous) frontier every extra cell buys strictly
    fewer bottleneck cycles or strictly less energy.

    *fidelity* opens the fourth (accuracy) axis: anything accepted by
    :meth:`repro.pim.replay.FidelitySpec.of` — ``True`` / a
    :class:`~repro.pim.replay.FidelitySpec` / a noise model / a
    lognormal sigma — replays every frontier point's per-stage
    solutions through the functional :class:`~repro.pim.engine.PIMEngine`
    (memoized per distinct plan on the engine) and attaches the
    resulting ``accuracy_proxy``.  Under
    :class:`~repro.pim.noise.NoNoise` the replay is asserted bit-exact
    against the :mod:`repro.pim.reference` oracle, so every proxy is
    exactly ``1.0``; noisy models score lower as perturbation grows.

    >>> from repro.core import PIMArray
    >>> from repro.networks import resnet18
    >>> front = chip_pareto(resnet18(),
    ...                     [PIMArray.square(s) for s in (256, 512)])
    >>> front[0].pool, front[0].num_arrays, front[0].bottleneck_cycles
    ('256x256', 57, 2809)
    >>> front[-1].bottleneck_cycles
    1
    >>> front[0].accuracy_proxy is None
    True
    >>> front = chip_pareto(resnet18(), [PIMArray.square(512)],
    ...                     fidelity=True)
    >>> {point.accuracy_proxy for point in front}
    {1.0}
    """
    from .requirements import InfeasibleTargetError
    if target_bottleneck is not None:
        target_bottleneck = require_positive_int("target_bottleneck",
                                                 target_bottleneck)
    if max_arrays is not None:
        max_arrays = require_positive_int("max_arrays", max_arrays)
    eng = engine if engine is not None else default_engine()
    params = cost_params if cost_params is not None else DEFAULT_COST_PARAMS
    if geometries is None:
        geometries = _candidate_grid(max_cells, sides, square_only=True)
    layers = tuple(network)
    plans = pool_plans(layers, geometries, scheme, include_mixed=pools,
                       engine=eng, cost_params=params)
    label = getattr(network, "name", None) or "network"

    plan_keys: List[Tuple[str, Tuple[MappingSolution, ...]]] = []
    sweeps = []
    for plan in plans:
        lattice = plan.lattice  # looked up once, by pool_plans
        assert lattice is not None
        sweep = lattice.frontier_sweep(max_arrays)
        if len(sweep):  # else even the residency floor exceeds max_arrays
            plan_keys.append((plan.label, lattice.solutions))
            sweeps.append(sweep)
    if not sweeps:
        raise InfeasibleTargetError(
            f"no pool plan of {label} fits within "
            f"max_arrays={max_arrays} (or no geometry maps every "
            f"layer with {scheme})", best=None)

    # One candidate row per breakpoint, plans in order, budgets
    # ascending; objects are built only for the rows the prune keeps.
    plan_of = np.repeat(np.arange(len(sweeps)),
                        [len(sweep) for sweep in sweeps])
    num_arrays, cells, energy, bottleneck, latency = (
        np.concatenate([getattr(sweep, name) for sweep in sweeps])
        for name in _FRONT_COLUMNS)
    if target_bottleneck is not None:
        meets = bottleneck <= target_bottleneck
        if not meets.any():
            best = int(bottleneck.min())
            raise InfeasibleTargetError(
                f"{label} bottlenecks at {best} cycles within "
                f"max_arrays={max_arrays}; target {target_bottleneck} is "
                f"out of reach", best=best)
        plan_of, num_arrays, cells, energy, bottleneck, latency = (
            column[meets] for column in (plan_of, num_arrays, cells,
                                         energy, bottleneck, latency))
    kept = _non_dominated(np.column_stack((cells, energy, bottleneck)))
    # Cells ascending, bottleneck descending, then energy; stable.
    kept = kept[np.lexsort((energy[kept], -bottleneck[kept], cells[kept]))]
    front = [ChipDesignPoint(plan_keys[p][0], n, c, e, b, u,
                             plan_keys[p][1])
             for p, n, c, e, b, u in zip(*(
                 column[kept].tolist() for column in (
                     plan_of, num_arrays, cells, energy, bottleneck,
                     latency)))]
    if fidelity is not None and fidelity is not False:
        from ..pim.replay import FidelitySpec
        spec = FidelitySpec.of(fidelity)
        front = [replace(point, accuracy_proxy=eng.point_fidelity(
                     point.solutions, spec).accuracy_proxy)
                 for point in front]
    return front


@dataclass(frozen=True)
class ParetoPoint:
    """One window on the cycles / utilization frontier."""

    window: str
    cycles: int
    mean_utilization_pct: float
    peak_utilization_pct: float


#: A landscape entry before frontier extraction: display label (or a
#: lattice cell awaiting one), cycles, mean %, peak %.
_Entry = Tuple[Union[str, Tuple[int, int]], int, float, float]


def window_pareto(layer: ConvLayer, array: PIMArray) -> List[ParetoPoint]:
    """Cycles-vs-(negated)-utilization frontier over all windows.

    Returned points are sorted by cycles; the first entry is the
    cycle-optimal window (Algorithm 1's answer), the last the
    utilization-optimal one.

    >>> front = window_pareto(ConvLayer.square(14, 3, 256, 256),
    ...                       PIMArray.square(512))
    >>> front[0].cycles            # Algorithm 1's 4x3-window optimum
    504
    """
    # The kernel-sized im2col entry keeps the scalar eq. 9 accounting
    # (fine-grained row chunks); every other window reads the lattice.
    base = next(iter(enumerate_feasible(layer, array)))
    report = utilization_report(base)
    entries: List[_Entry] = [(str(base.window), base.cycles,
                              report.mean_pct, report.peak_pct)]
    space = CandidateSpace.for_layer(layer, array)
    lattice = space.lattice
    mean = lattice.mean_utilization_pct()
    peak = lattice.peak_utilization_pct()
    entries.extend(
        ((i, j), int(lattice.cycles[i, j]),
         float(mean[i, j]), float(peak[i, j]))
        for i, j in space.iter_cells(order="area"))

    # Minimise (cycles, -mean utilization); the skyline keeps one of
    # each exact tie, and every window tied with a kept one rejoins.
    cycles = np.asarray([entry[1] for entry in entries], dtype=np.int64)
    mean_pct = np.asarray([entry[2] for entry in entries], dtype=np.float64)
    kept = skyline(np.column_stack((cycles, -mean_pct)))
    front_keys = set(zip(cycles[kept].tolist(), mean_pct[kept].tolist()))
    front: List[ParetoPoint] = []
    for label, cyc, mean_u, peak_u in sorted(entries, key=lambda e: e[1]):
        if (cyc, mean_u) not in front_keys:
            continue
        if not isinstance(label, str):
            label = str(lattice.window_at(*label))
        front.append(ParetoPoint(window=label, cycles=cyc,
                                 mean_utilization_pct=mean_u,
                                 peak_utilization_pct=peak_u))
    return front
