"""Heterogeneous array pools: mixed crossbar geometries on one chip.

The homogeneous chip model gives every pipeline stage the same
``rows x cols`` crossbars.  Real PIM macros are taped out in families,
and VW-SDK's own result — variable windows make *non-square* arrays
competitive — means one geometry rarely fits every layer: early layers
with huge ``N_PW`` want cheap small tiles to replicate, late layers
with deep channels want tall arrays that shrink the residency floor.

A *pool* is the set of geometries a chip may mix.  This module turns a
pool into candidate deployment *plans*:

* one **homogeneous** plan per pool geometry that can map every layer
  (the baseline the heterogeneous frontier must dominate-or-equal);
* one **mixed** plan assigning each stage its best-fitting geometry.

"Best-fitting" minimises the stage's *cells-per-throughput* product
``n_pw * tiles * cells``: reaching stage latency ``L`` needs
``ceil(n_pw/L)`` replicas of ``tiles`` arrays of ``cells`` cells each,
so for every latency target the stage's silicon bill scales with that
product.  Ties fall to lower per-inference energy, then fewer cells,
then fewer rows (the wider of two transposed geometries) —
deterministic for identical layers, so repeated blocks always land on
the same geometry.

Every plan then flows through the *existing* staircase machinery: the
:class:`~repro.chip.sweep.ChipLattice` merge never inspects the arrays
(only per-stage ``(n_pw, tiles, repeats)``), so mixed-geometry stages
replay through the same vectorized sweeps.  :func:`pool_plans` takes
each plan's priced lattice from the engine memo and hands it over on
:attr:`PoolPlan.lattice`: the best-fit keys are read off the
homogeneous lattices' per-stage vectors, and
:func:`repro.dse.pareto.chip_pareto` prices every plan's frontier from
that one lattice, looked up once.

>>> from repro.core import PIMArray
>>> from repro.networks import resnet18
>>> pool = [PIMArray.square(128), PIMArray.square(512)]
>>> [plan.label for plan in pool_plans(resnet18(), pool)]
['128x128', '512x512', 'mixed']
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.array import PIMArray
from ..core.cost import DEFAULT_COST_PARAMS, CostParams, cost_report
from ..core.layer import ConvLayer
from ..core.types import ConfigurationError, MappingError
from ..search.result import MappingSolution

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..api.engine import MappingEngine
    from .sweep import ChipLattice

__all__ = ["PoolPlan", "best_fit_arrays", "pool_plans"]


@dataclass(frozen=True)
class PoolPlan:
    """One candidate deployment: a geometry per pipeline stage.

    ``label`` identifies the plan in frontiers and reports — the
    geometry string (``"512x512"``) for homogeneous plans, ``"mixed"``
    for the best-fit assignment.
    """

    label: str
    #: Per-stage array geometry, aligned with the network's layers.
    arrays: Tuple[PIMArray, ...]
    homogeneous: bool
    #: The plan's priced :class:`~repro.chip.sweep.ChipLattice`, as
    #: :func:`pool_plans` took it from the engine memo (``None`` for a
    #: plan built by hand).  Not part of the plan's identity.
    lattice: Optional["ChipLattice"] = field(default=None, compare=False,
                                             repr=False)

    def __str__(self) -> str:  # noqa: D105 - compact summary
        return f"{self.label}[{len(self.arrays)} stages]"


def _default_engine() -> "MappingEngine":
    from ..api.engine import default_engine
    return default_engine()


def _normalized_pool(pool: Sequence[PIMArray]) -> List[PIMArray]:
    """Validate and canonicalise a pool: deduplicated, sorted by
    ``(cells, rows)`` so plan order (and labels) never depend on the
    caller's ordering."""
    geometries = list(pool)
    if not geometries:
        raise ConfigurationError("array pool must name >= 1 geometry")
    for geometry in geometries:
        if not isinstance(geometry, PIMArray):
            raise ConfigurationError(
                f"array pool entries must be PIMArray, got "
                f"{type(geometry).__name__}")
    unique = {(g.rows, g.cols): g for g in geometries}
    return sorted(unique.values(), key=lambda g: (g.cells, g.rows))


def _fit_key(solution: MappingSolution,
             cost_params: CostParams) -> Tuple[float, float, int, int]:
    """The best-fit ordering key (lower is better) for one stage on one
    geometry — see the module docstring."""
    tiles = solution.breakdown.tiles_per_position
    cells = solution.array.cells
    energy = cost_report(solution, cost_params).compute_energy_nj
    return (float(solution.breakdown.n_pw) * tiles * cells, energy,
            cells, solution.array.rows)


def _best_fit_of(plans: Sequence[PoolPlan]) -> Tuple[PIMArray, ...]:
    """:func:`best_fit_arrays` read off homogeneous plans' lattices.

    Every plan maps every layer, so the ``(plans, stages)`` matrices of
    the lattices' per-stage ``n_pw``, ``tiles``, ``cells`` and
    ``stage_energy_nj`` hold each pair's :func:`_fit_key` terms in its
    order; a stable sort over the plans keeps the first of equal keys,
    as the scalar scan does.
    """
    n_pw, tiles, cells, energy = (
        np.stack([getattr(plan.lattice, name) for plan in plans])
        for name in ("n_pw", "tiles", "cells", "stage_energy_nj"))
    rows = np.broadcast_to(np.asarray(
        [plan.arrays[0].rows for plan in plans], dtype=np.int64)[:, None],
        n_pw.shape)
    product = n_pw.astype(np.float64) * tiles * cells
    best = np.lexsort((rows, cells, energy, product), axis=0)[0]
    return tuple(plans[index].arrays[0] for index in best.tolist())


def best_fit_arrays(network: Iterable[ConvLayer], pool: Sequence[PIMArray],
                    scheme: str = "vw-sdk", *,
                    engine: Optional["MappingEngine"] = None,
                    cost_params: Optional[CostParams] = None
                    ) -> Tuple[PIMArray, ...]:
    """Assign every layer of *network* its best-fitting pool geometry.

    Each ``(layer, geometry)`` pair is solved through the shared
    engine's memo; geometries a layer cannot map on (``MappingError``)
    are skipped for that layer.  Raises
    :class:`~repro.core.types.MappingError` if some layer maps on no
    pool geometry at all.

    >>> from repro.core import PIMArray
    >>> from repro.networks import resnet18
    >>> pool = [PIMArray.square(128), PIMArray.square(512)]
    >>> assignment = best_fit_arrays(resnet18(), pool)
    >>> sorted({str(a) for a in assignment})
    ['128x128', '512x512']
    """
    eng = engine if engine is not None else _default_engine()
    params = cost_params if cost_params is not None else DEFAULT_COST_PARAMS
    geometries = _normalized_pool(pool)
    chosen: List[PIMArray] = []
    for layer in network:
        best: Optional[Tuple[Tuple[float, float, int, int], PIMArray]] = None
        for geometry in geometries:
            try:
                solution = eng.solve(layer, geometry, scheme)
            except MappingError:
                continue
            key = _fit_key(solution, params)
            if best is None or key < best[0]:
                best = (key, geometry)
        if best is None:
            raise MappingError(
                f"layer {layer.name or layer.shape_str} maps on no pool "
                f"geometry ({', '.join(map(str, geometries))}) "
                f"with {scheme}")
        chosen.append(best[1])
    return tuple(chosen)


def pool_plans(network: Iterable[ConvLayer], pool: Sequence[PIMArray],
               scheme: str = "vw-sdk", *,
               include_mixed: bool = True,
               engine: Optional["MappingEngine"] = None,
               cost_params: Optional[CostParams] = None) -> List[PoolPlan]:
    """Candidate deployment plans of *network* over an array *pool*.

    One homogeneous plan per geometry that maps every layer, plus —
    with *include_mixed* (the default) and >= 2 pool geometries — the
    best-fit mixed plan when every layer maps on some geometry and the
    plan differs from every homogeneous one.
    Because the homogeneous plans are always included, any frontier
    taken over all returned plans dominates-or-equals each single
    geometry's frontier by construction.  Returns ``[]`` when no pool
    geometry maps the whole network.

    Each plan carries its :meth:`~repro.api.engine.MappingEngine.chip_lattice`
    priced with *cost_params* (:data:`~repro.core.cost.DEFAULT_COST_PARAMS`
    when ``None``) on :attr:`PoolPlan.lattice`; a geometry whose lattice
    raises :class:`~repro.core.types.MappingError` gets no plan.  The
    mixed plan is scored off the homogeneous lattices when every pool
    geometry maps every layer, and through :func:`best_fit_arrays`
    otherwise — the same assignment either way.

    >>> from repro.core import PIMArray
    >>> from repro.networks import resnet18
    >>> pool = [PIMArray.square(128), PIMArray.square(512)]
    >>> [p.label for p in pool_plans(resnet18(), pool,
    ...                              include_mixed=False)]
    ['128x128', '512x512']
    """
    eng = engine if engine is not None else _default_engine()
    params = cost_params if cost_params is not None else DEFAULT_COST_PARAMS
    geometries = _normalized_pool(pool)
    layers = tuple(network)
    plans: List[PoolPlan] = []
    for geometry in geometries:
        try:
            lattice = eng.chip_lattice(layers, geometry, scheme,
                                       cost_params=params)
        except MappingError:
            continue
        plans.append(PoolPlan(label=str(geometry),
                              arrays=(geometry,) * len(layers),
                              homogeneous=True, lattice=lattice))
    if include_mixed and len(geometries) >= 2:
        assignment: Optional[Tuple[PIMArray, ...]] = None
        if len(plans) == len(geometries):
            assignment = _best_fit_of(plans)
        else:  # a geometry misses some layer: score pair by pair
            try:
                assignment = best_fit_arrays(layers, geometries, scheme,
                                             engine=eng, cost_params=params)
            except MappingError:
                pass
        if assignment is not None and \
                all(plan.arrays != assignment for plan in plans):
            plans.append(PoolPlan(
                label="mixed", arrays=assignment, homogeneous=False,
                lattice=eng.chip_lattice(layers, assignment, scheme,
                                         cost_params=params)))
    return plans
