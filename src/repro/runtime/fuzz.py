"""Time-boxed differential fuzzer over every planning surface.

PR 8's fuzzer diffed one surface — ``engine.map`` answered cold,
cached and store-recovered.  This module generalises it into a
pluggable **surface registry** (mirroring
:class:`repro.api.registry.SolverRegistry`): each surface is a named
runner that generates one random case and diffs a fast path against a
scalar oracle, and the wall-clock budget is split evenly across all
registered surfaces.

Built-in surfaces:

* ``map`` — cold vs cached vs store-recovered canonical solution JSON
  (the PR 8 differential, store file damaged at a random offset), plus
  ``map_batch`` over every answered request twice, shuffled, on fresh,
  evicting (``cache_size=2``, serial and threaded) and store-backed
  engines;
* ``network_sweep`` — vectorized ``sweep_cycles`` over a random array
  ladder vs per-layer cold scalar solves, typed errors canonicalised
  per array;
* ``chip_sweep`` — batched :class:`~repro.chip.sweep.ChipLattice`
  probes vs the scalar ``heapq`` greedy of
  :func:`~repro.chip.pipeline.plan_pipeline`, including the
  infeasible-budget boundary and the cost-model columns, plus the
  closed-form ``frontier_sweep`` vs the batched replay at the same
  breakpoint budgets and vs the greedy at up to three of them;
* ``chip_pareto`` — frontier invariants (sort order, pairwise
  non-domination, pools dominance) plus per-point scalar replay of
  bottleneck / cells / energy / latency under randomized
  :class:`~repro.core.cost.CostParams`;
* ``backend`` — numpy vs interpreted-numba kernels (vs JIT numba when
  installed) on the same sweep, exact equality;
* ``grouped`` — :func:`~repro.core.grouped.grouped_mapping` packing
  invariants vs a direct solve of the per-group sub-layer.

Every case is derived from ``(seed, surface, index)`` via
:func:`case_seed`, so any divergence is replayable from three
integers.  Divergences are also dumped as JSON fixtures under the
corpus directory (``tests/fixtures/fuzz/`` by default);
``tests/test_fuzz_corpus.py`` replays the whole corpus so every bug
the fuzzer ever finds stays a permanent regression test.

CI runs ``python -m repro.runtime.fuzz --budget-s 30 --seed 0``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field, fields
from difflib import get_close_matches
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..api.engine import MappingEngine
from ..api.request import MappingRequest
from ..api.response import solution_to_dict
from ..core.array import PIMArray
from ..core.layer import ConvLayer
from ..core.types import ConfigurationError, ReproError
from .store import SolutionStore

__all__ = ["SurfaceInfo", "SurfaceRegistry", "UnknownSurfaceError",
           "DuplicateSurfaceError", "DEFAULT_SURFACES",
           "register_surface", "case_seed", "run_case", "dump_fixture",
           "replay_fixture", "fuzz_once", "main"]

#: Default corpus directory for divergence fixtures (repo-relative).
DEFAULT_CORPUS = Path("tests") / "fixtures" / "fuzz"


class UnknownSurfaceError(ConfigurationError):
    """Raised when a fuzz surface name is not registered."""


class DuplicateSurfaceError(ConfigurationError):
    """Raised when registering an already-registered surface name."""


#: A surface runner: one random differential case from *rng*, scratch
#: files under *tmp_dir*; returns a mismatch description or ``None``.
Runner = Callable[[random.Random, Path], Optional[str]]


@dataclass(frozen=True)
class SurfaceInfo:
    """Registry entry: a named differential surface."""

    name: str
    runner: Runner = field(compare=False)
    summary: str = field(default="", compare=False)


class SurfaceRegistry:
    """Thread-safe name -> :class:`SurfaceInfo` registry.

    Mirrors :class:`repro.api.registry.SolverRegistry`: duplicate
    registration is an error unless ``replace=True``, and unknown
    lookups fail with a did-you-mean suggestion.

    >>> registry = SurfaceRegistry()
    >>> @registry.register_surface("noop", summary="does nothing")
    ... def _noop(rng, tmp_dir):
    ...     return None
    >>> registry.names()
    ('noop',)
    >>> "noop" in registry
    True
    """

    def __init__(self) -> None:
        self._surfaces: Dict[str, SurfaceInfo] = {}
        self._lock = threading.Lock()

    def register(self, name: str, runner: Runner, *,
                 summary: str = "", replace: bool = False) -> None:
        """Register *runner* under *name*."""
        if not callable(runner):
            raise ConfigurationError(
                f"surface {name!r} runner must be callable, got "
                f"{type(runner).__name__}")
        with self._lock:
            if name in self._surfaces and not replace:
                raise DuplicateSurfaceError(
                    f"fuzz surface {name!r} is already registered; pass "
                    f"replace=True to override")
            self._surfaces[name] = SurfaceInfo(name=name, runner=runner,
                                               summary=summary)

    def register_surface(self, name: str, *, summary: str = "",
                         replace: bool = False
                         ) -> Callable[[Runner], Runner]:
        """Decorator form of :meth:`register`."""
        def decorator(runner: Runner) -> Runner:
            self.register(name, runner, summary=summary, replace=replace)
            return runner
        return decorator

    def unregister(self, name: str) -> None:
        """Remove *name*; unknown names raise."""
        with self._lock:
            if name not in self._surfaces:
                raise UnknownSurfaceError(
                    f"cannot unregister unknown fuzz surface {name!r}")
            del self._surfaces[name]

    def get(self, name: str) -> SurfaceInfo:
        """Look up *name*, suggesting the closest match on a miss."""
        with self._lock:
            info = self._surfaces.get(name)
            known = tuple(self._surfaces)
        if info is not None:
            return info
        hint = get_close_matches(name, known, n=1, cutoff=0.5)
        suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
        raise UnknownSurfaceError(
            f"unknown fuzz surface {name!r} (known: "
            f"{', '.join(known) or 'none'}){suggestion}")

    def names(self) -> Tuple[str, ...]:
        """Registered surface names, in registration order."""
        with self._lock:
            return tuple(self._surfaces)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._surfaces

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        with self._lock:
            return len(self._surfaces)


#: The shared registry the CLI drives; import-time registrations below.
DEFAULT_SURFACES = SurfaceRegistry()


def register_surface(name: str, *, summary: str = "",
                     replace: bool = False) -> Callable[[Runner], Runner]:
    """Register a surface on :data:`DEFAULT_SURFACES` (decorator)."""
    return DEFAULT_SURFACES.register_surface(name, summary=summary,
                                             replace=replace)


# ----------------------------------------------------------------------
# Random-case generation
# ----------------------------------------------------------------------
def _random_layer(rng: random.Random) -> ConvLayer:
    """A random conv layer — padded, strided, non-square, repeated.

    PR 8's generator only produced square unpadded layers; every
    geometry axis the planning stack supports is now exercised.
    """
    kernel_h = rng.choice([1, 3, 5, 7])
    kernel_w = kernel_h if rng.random() < 0.8 else rng.choice([1, 3, 5])
    padding = rng.choice([0, 0, 0, 1, 2, 3])
    min_w = max(1, kernel_w - 2 * padding)
    ifm_h = rng.randint(max(1, kernel_h - 2 * padding), 56)
    ifm_w = (max(ifm_h, min_w) if rng.random() < 0.8
             else rng.randint(min_w, 56))
    return ConvLayer(ifm_h=ifm_h, ifm_w=ifm_w,
                     kernel_h=kernel_h, kernel_w=kernel_w,
                     in_channels=rng.choice([1, 3, 16, 32, 64, 128]),
                     out_channels=rng.choice([1, 16, 32, 64, 128, 256]),
                     stride=rng.choice([1, 1, 1, 2]),
                     padding=padding,
                     repeats=rng.choice([1, 1, 1, 2, 3]))


def _random_array(rng: random.Random) -> PIMArray:
    """A random crossbar geometry, non-square included."""
    return PIMArray(rng.choice([64, 128, 256, 512, 768]),
                    rng.choice([64, 128, 256, 512]))


def _random_case(rng: random.Random,
                 schemes: Sequence[str]) -> List[MappingRequest]:
    """A random mini-network mapped onto a random array."""
    array = _random_array(rng)
    return [MappingRequest(layer=_random_layer(rng), array=array,
                           scheme=rng.choice(list(schemes)))
            for _ in range(rng.randint(1, 4))]


def _error_token(error: ReproError) -> str:
    """Canonical token for a typed failure outcome."""
    return f"error:{type(error).__name__}"


# ----------------------------------------------------------------------
# Surface: map (cold vs cached vs store-recovered, from PR 8)
# ----------------------------------------------------------------------
def _canonical(engine: MappingEngine,
               requests: Sequence[MappingRequest]) -> str:
    """Canonical JSON of every request's outcome.

    Typed failures (an infeasible window geometry raises
    :class:`~repro.core.types.MappingError`, say) are outcomes too —
    every path must agree on *which* typed error a case produces, so
    they are canonicalised instead of aborting the fuzz run.
    """
    payload = []
    for request in requests:
        try:
            payload.append(solution_to_dict(engine.map(request).solution))
        except ReproError as error:
            payload.append({"error": type(error).__name__,
                            "message": str(error)})
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _damage(path: Path, rng: random.Random) -> str:
    """Corrupt the store file at a random offset; returns a label."""
    raw = bytearray(path.read_bytes())
    if not raw:
        return "empty"
    offset = rng.randrange(len(raw))
    if rng.random() < 0.5:
        path.write_bytes(bytes(raw[:offset]))
        return f"truncated at byte {offset}/{len(raw)}"
    raw[offset] ^= rng.randint(1, 255)
    path.write_bytes(bytes(raw))
    return f"bit-flipped byte {offset}/{len(raw)}"


def _batch_mismatch(rng: random.Random, requests: Sequence[MappingRequest],
                    cold: str, store: SolutionStore) -> Optional[str]:
    """Diff ``map_batch`` against cold ``map`` (*cold* is its
    :func:`_canonical` form).

    Every request cold ``map`` answers goes in twice, in shuffled
    order, through a default engine; through a ``cache_size=2``
    engine warmed with one of them, which forces mid-batch evictions;
    and through an engine on *store*, which already holds every
    answer.  Each response must carry its cold solution, and on the
    default engine ``cached`` must be False exactly on the first
    occurrence of each key.
    """
    answered = [(request, outcome) for request, outcome
                in zip(requests, json.loads(cold)) if "error" not in outcome]
    if not answered:
        return None
    pairs = answered * 2
    rng.shuffle(pairs)
    batch = [request for request, _ in pairs]
    want = json.dumps([outcome for _, outcome in pairs], sort_keys=True,
                      separators=(",", ":"))
    warm = rng.choice(batch)
    evicting = MappingEngine(cache_size=2)
    evicting.map(warm)
    runs = [("default", MappingEngine()),
            ("store-backed", MappingEngine(store=store)),
            ("cache_size=2", evicting)]
    for label, engine in runs:
        result = engine.map_batch(batch)
        got = json.dumps([solution_to_dict(r.solution) for r in result],
                         sort_keys=True, separators=(",", ":"))
        if got != want:
            return f"map_batch ({label}) != cold"
        if label == "default":
            keys = [request.cache_key for request in batch]
            first = [key not in keys[:i] for i, key in enumerate(keys)]
            if [not r.cached for r in result] != first:
                return "map_batch (default) misses != first occurrences"
    return None


@register_surface("map", summary="cold vs cached vs store-recovered "
                                 "engine.map solutions, and map_batch "
                                 "with duplicates")
def fuzz_once(rng: random.Random, tmp_dir: Path) -> Optional[str]:
    """One differential case; returns a mismatch description or None."""
    schemes = MappingEngine().schemes()
    requests = _random_case(rng, schemes)
    case = "; ".join(f"{r.scheme} {r.layer.shape_str}"
                     f" on {r.array.rows}x{r.array.cols}"
                     for r in requests)

    cold = _canonical(MappingEngine(cache_size=0), requests)

    cached_engine = MappingEngine()
    first = _canonical(cached_engine, requests)
    second = _canonical(cached_engine, requests)
    if first != cold:
        return f"cached(first) != cold for [{case}]"
    if second != cold:
        return f"cached(memo hit) != cold for [{case}]"

    store_path = tmp_dir / f"fuzz-{rng.randrange(1 << 30)}.jsonl"
    with SolutionStore(store_path) as store:
        persisted = _canonical(MappingEngine(cache_size=0, store=store),
                               requests)
    if persisted != cold:
        return f"store-backed != cold for [{case}]"
    damage = _damage(store_path, rng)
    with SolutionStore(store_path) as store:
        recovered = _canonical(MappingEngine(cache_size=0, store=store),
                               requests)
        batched = _batch_mismatch(rng, requests, cold, store)
    store_path.unlink(missing_ok=True)
    if recovered != cold:
        return (f"store-recovered != cold for [{case}] "
                f"(store {damage})")
    if batched is not None:
        return f"{batched} for [{case}]"
    return None


# ----------------------------------------------------------------------
# Surface: network_sweep (vectorized lattice vs scalar oracle)
# ----------------------------------------------------------------------
Token = Union[int, str]


def _vector_tokens(engine: MappingEngine, layers: Sequence[ConvLayer],
                   arrays: Sequence[PIMArray], scheme: str,
                   backend: object = None) -> List[Token]:
    """Per-array cycle totals off the batched sweep, errors canonical.

    When the whole-ladder call raises a typed error the ladder is
    retried array by array, so a single infeasible geometry yields one
    error token instead of poisoning the batch comparison.
    """
    try:
        return [int(v) for v in
                engine.sweep_cycles(layers, arrays, scheme, backend)]
    except ReproError:
        tokens: List[Token] = []
        for array in arrays:
            try:
                tokens.append(int(engine.sweep_cycles(
                    layers, [array], scheme, backend)[0]))
            except ReproError as error:
                tokens.append(_error_token(error))
        return tokens


def _scalar_tokens(layers: Sequence[ConvLayer],
                   arrays: Sequence[PIMArray],
                   scheme: str) -> List[Token]:
    """The cold per-layer oracle for :func:`_vector_tokens`."""
    engine = MappingEngine(cache_size=0)
    tokens: List[Token] = []
    for array in arrays:
        try:
            tokens.append(sum(engine.solve(layer, array, scheme).cycles
                              for layer in layers))
        except ReproError as error:
            tokens.append(_error_token(error))
    return tokens


@register_surface("network_sweep",
                  summary="vectorized sweep_cycles vs cold per-layer "
                          "scalar solves")
def _network_sweep_surface(rng: random.Random,
                           tmp_dir: Path) -> Optional[str]:
    layers = [_random_layer(rng) for _ in range(rng.randint(1, 4))]
    arrays = [_random_array(rng) for _ in range(rng.randint(1, 5))]
    scheme = "vw-sdk"
    vector = _vector_tokens(MappingEngine(), layers, arrays, scheme)
    scalar = _scalar_tokens(layers, arrays, scheme)
    if vector != scalar:
        case = "; ".join(layer.shape_str for layer in layers)
        ladder = ", ".join(str(a) for a in arrays)
        return (f"sweep_cycles != scalar oracle for [{case}] over "
                f"[{ladder}]: {vector} vs {scalar}")
    return None


# ----------------------------------------------------------------------
# Surface: chip_sweep (ChipLattice vs the heapq greedy)
# ----------------------------------------------------------------------
def _random_cost_params(rng: random.Random) -> "object":
    from ..core.cost import CostParams
    return CostParams(
        cycle_time_ns=rng.choice([10.0, 100.0, 250.0]),
        adc_energy_pj=round(rng.uniform(0.5, 4.0), 3),
        dac_energy_pj=round(rng.uniform(0.01, 0.2), 4),
        cell_energy_pj=round(rng.uniform(0.0005, 0.004), 5),
        write_energy_pj=round(rng.uniform(2.0, 20.0), 3),
        include_writes=rng.random() < 0.5,
        idle_column_conversion=rng.random() < 0.5)


@register_surface("chip_sweep",
                  summary="batched ChipLattice probes vs the scalar "
                          "heapq greedy (plan_pipeline)")
def _chip_sweep_surface(rng: random.Random,
                        tmp_dir: Path) -> Optional[str]:
    from ..chip.config import ChipConfig
    from ..chip.pipeline import InsufficientArraysError, plan_pipeline
    from ..networks.layerset import Network

    layers = [_random_layer(rng) for _ in range(rng.randint(1, 4))]
    array = _random_array(rng)
    scheme = "vw-sdk"
    case = ("; ".join(layer.shape_str for layer in layers)
            + f" on {array.rows}x{array.cols}")
    params = _random_cost_params(rng) if rng.random() < 0.5 else None

    engine = MappingEngine()
    cold = MappingEngine(cache_size=0)
    try:
        solutions = [cold.solve(layer, array, scheme) for layer in layers]
    except ReproError as error:
        # Infeasible geometry: the lattice build must fail identically.
        try:
            engine.chip_lattice(layers, array, scheme, cost_params=params)
        except ReproError as lattice_error:
            if type(lattice_error) is type(error):
                return None
            return (f"chip_lattice raised "
                    f"{type(lattice_error).__name__}, scalar solve "
                    f"raised {type(error).__name__} for [{case}]")
        return (f"chip_lattice succeeded where scalar solve raised "
                f"{type(error).__name__} for [{case}]")

    lattice = engine.chip_lattice(layers, array, scheme,
                                  cost_params=params)
    network = Network.from_layers("fuzz", layers)
    floor = lattice.floor_arrays
    spare = floor + rng.randint(0, 64)
    counts = sorted({floor, floor + 1, spare, floor * 2}
                    | ({floor - 1} if floor > 1 else set()))
    sweep = lattice.sweep(counts)
    for index, count in enumerate(counts):
        probe = sweep.outcome(index)
        try:
            plan = plan_pipeline(network, ChipConfig(array, count),
                                 scheme, solutions=solutions)
            greedy = (plan.bottleneck_cycles, plan.fill_latency_cycles,
                      plan.arrays_used)
        except InsufficientArraysError:
            greedy = None
        batched = (None if probe is None else
                   (probe.bottleneck_cycles, probe.fill_latency_cycles,
                    probe.arrays_used))
        if batched != greedy:
            return (f"lattice.sweep probe at {count} {batched} != "
                    f"greedy {greedy} for [{case}]")
        if params is not None and probe is not None:
            oracle = _cost_oracle(solutions, params,
                                  probe.bottleneck_cycles)
            got = (probe.cells_used, probe.energy_nj, probe.latency_us)
            want = (_cells_oracle(plan), oracle[0], oracle[1])
            if got != want:
                return (f"costed sweep probe at {count} {got} != scalar "
                        f"cost_report oracle {want} for [{case}]")

    # The closed-form frontier: the replay at its own budgets, field
    # for field, and the heapq greedy at up to three breakpoints.
    cap = spare if rng.random() < 0.5 else None
    frontier = lattice.frontier_sweep(cap)
    replay = lattice.sweep(lattice.frontier_counts(cap))
    for name in [f.name for f in fields(frontier)]:
        if not _same_vector(getattr(frontier, name), getattr(replay, name)):
            return (f"frontier_sweep({cap}).{name} != sweep at "
                    f"frontier_counts({cap}) for [{case}]")
    for index in rng.sample(range(len(frontier)), min(3, len(frontier))):
        count = int(frontier.num_arrays[index])
        plan = plan_pipeline(network, ChipConfig(array, count), scheme,
                             solutions=solutions)
        greedy = (plan.bottleneck_cycles, plan.fill_latency_cycles,
                  plan.arrays_used, _cells_oracle(plan))
        closed = (int(frontier.bottleneck_cycles[index]),
                  int(frontier.fill_latency_cycles[index]),
                  int(frontier.arrays_used[index]),
                  int(frontier.cells_used[index]))
        if closed != greedy:
            return (f"frontier_sweep breakpoint {count} {closed} != "
                    f"greedy {greedy} for [{case}]")
    return None


def _same_vector(got: Optional[np.ndarray],
                 want: Optional[np.ndarray]) -> bool:
    """Both ``None``, or equal dtype, shape and bytes (NaNs included)."""
    if got is None or want is None:
        return got is want
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def _cells_oracle(plan: "object") -> int:
    """Scalar silicon-cells oracle off a pipeline plan's allocations."""
    return sum(a.arrays * a.solution.layer.repeats * a.solution.array.cells
               for a in plan.allocations)


def _cost_oracle(solutions: Sequence["object"], params: "object",
                 bottleneck: int) -> Tuple[float, float]:
    """(energy_nj, latency_us) exactly as the lattice computes them."""
    from ..core.cost import cost_report
    stage = np.asarray([cost_report(s, params).compute_energy_nj
                        for s in solutions], dtype=np.float64)
    repeats = np.asarray([s.layer.repeats for s in solutions],
                         dtype=np.int64)
    energy = math.fsum(np.repeat(stage, repeats).tolist())
    return energy, bottleneck * params.cycle_time_ns / 1000.0


# ----------------------------------------------------------------------
# Surface: chip_pareto (frontier invariants + scalar replay)
# ----------------------------------------------------------------------
def _dominates_or_equal(a: Tuple[float, ...], b: Tuple[float, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


@register_surface("chip_pareto",
                  summary="frontier invariants + per-point scalar "
                          "replay under random CostParams")
def _chip_pareto_surface(rng: random.Random,
                         tmp_dir: Path) -> Optional[str]:
    from ..chip.config import ChipConfig
    from ..chip.pipeline import plan_pipeline
    from ..dse.pareto import chip_pareto
    from ..dse.requirements import InfeasibleTargetError
    from ..networks.layerset import Network

    layers = [_random_layer(rng) for _ in range(rng.randint(1, 3))]
    network = Network.from_layers("fuzz", layers)
    sides = (64, 96, 128, 192, 256)
    geometries = []
    for _ in range(rng.randint(2, 3)):
        geometry = PIMArray(rng.choice(sides), rng.choice(sides))
        if geometry not in geometries:
            geometries.append(geometry)
    params = _random_cost_params(rng)
    pools = rng.random() < 0.5
    max_arrays = rng.choice([None, rng.randint(1, 400)])
    case = ("; ".join(layer.shape_str for layer in layers)
            + " over [" + ", ".join(str(g) for g in geometries) + "]"
            + (f" max_arrays={max_arrays}" if max_arrays else "")
            + (" pools" if pools else ""))

    engine = MappingEngine()
    try:
        front = chip_pareto(network, geometries, pools=pools,
                            cost_params=params, max_arrays=max_arrays,
                            engine=engine)
    except InfeasibleTargetError:
        return None  # a typed no-fit outcome, not a divergence

    objectives = [(p.cells, p.energy_nj, p.bottleneck_cycles)
                  for p in front]
    ordered = sorted(range(len(front)),
                     key=lambda k: (front[k].cells,
                                    -front[k].bottleneck_cycles,
                                    front[k].energy_nj))
    if ordered != list(range(len(front))):
        return f"chip_pareto points not sorted for [{case}]"
    for i, a in enumerate(objectives):
        for j, b in enumerate(objectives):
            if i != j and _dominates_or_equal(a, b) and a != b:
                return (f"dominated point survived: {b} loses to {a} "
                        f"for [{case}]")

    replay = front if len(front) <= 12 else rng.sample(front, 12)
    for point in replay:
        plan = plan_pipeline(network,
                             ChipConfig(geometries[0], point.num_arrays),
                             solutions=list(point.solutions))
        energy, latency = _cost_oracle(point.solutions, params,
                                       plan.bottleneck_cycles)
        got = (point.bottleneck_cycles, point.cells, point.energy_nj,
               point.latency_us)
        want = (plan.bottleneck_cycles, _cells_oracle(plan), energy,
                latency)
        if got != want:
            return (f"frontier point {point.pool}@{point.num_arrays} "
                    f"{got} != scalar replay {want} for [{case}]")

    if pools:
        try:
            homogeneous = chip_pareto(network, geometries, pools=False,
                                      cost_params=params,
                                      max_arrays=max_arrays, engine=engine)
        except InfeasibleTargetError:
            # Only the mixed pool plan fits the budget: there is no
            # homogeneous point to dominate, so dominance holds.
            homogeneous = []
        for h in homogeneous:
            h_obj = (h.cells, h.energy_nj, h.bottleneck_cycles)
            if not any(_dominates_or_equal(o, h_obj) for o in objectives):
                return (f"pools=True frontier fails to dominate "
                        f"homogeneous point {h_obj} for [{case}]")
    return None


# ----------------------------------------------------------------------
# Surface: backend (numpy vs interpreted/JIT numba kernels)
# ----------------------------------------------------------------------
@register_surface("backend",
                  summary="numpy vs interpreted numba kernels (JIT too "
                          "when installed) on the same sweep")
def _backend_surface(rng: random.Random, tmp_dir: Path) -> Optional[str]:
    from ..core._kernels import finish_kernel, geo_cycles_kernel
    from ..core.backend import HAVE_NUMBA, NumbaBackend, get_backend

    class InterpretedBackend(NumbaBackend):
        """Numba kernels as plain Python — same code path, no JIT."""
        name = "numba-interp"

        def __init__(self) -> None:
            self._finish = finish_kernel
            self._geo_cycles = geo_cycles_kernel

    layers = [_random_layer(rng) for _ in range(rng.randint(1, 3))]
    arrays = [_random_array(rng) for _ in range(rng.randint(1, 4))]
    scheme = "vw-sdk"
    case = "; ".join(layer.shape_str for layer in layers)

    reference = _vector_tokens(MappingEngine(), layers, arrays, scheme,
                               "numpy")
    interpreted = _vector_tokens(MappingEngine(), layers, arrays, scheme,
                                 InterpretedBackend())
    if interpreted != reference:
        return (f"interpreted numba kernels != numpy for [{case}]: "
                f"{interpreted} vs {reference}")
    if HAVE_NUMBA:
        jitted = _vector_tokens(MappingEngine(), layers, arrays, scheme,
                                get_backend("numba"))
        if jitted != reference:
            return (f"JIT numba != numpy for [{case}]: "
                    f"{jitted} vs {reference}")
    return None


# ----------------------------------------------------------------------
# Surface: grouped (grouped_mapping invariants vs direct solve)
# ----------------------------------------------------------------------
@register_surface("grouped",
                  summary="grouped_mapping packing invariants vs a "
                          "direct solve of the sub-layer")
def _grouped_surface(rng: random.Random, tmp_dir: Path) -> Optional[str]:
    from ..core.grouped import grouped_mapping

    array = _random_array(rng)
    kernel = rng.choice([1, 3, 5])
    ifm = rng.randint(kernel, 32)
    groups = rng.choice([1, 2, 4, 8])
    in_channels = rng.choice([1, 2, 4, 8]) * groups
    out_channels = rng.choice([1, 2, 4]) * groups
    optimize = rng.random() < 0.5
    case = (f"{ifm}x{ifm}/k{kernel} {in_channels}->{out_channels} "
            f"g{groups} on {array.rows}x{array.cols}"
            + ("" if optimize else " no-pack-opt"))

    sub_layer = ConvLayer.square(ifm, kernel, in_channels // groups,
                                 out_channels // groups)
    cold = MappingEngine(cache_size=0)
    try:
        direct = cold.solve(sub_layer, array, "vw-sdk")
    except ReproError as error:
        try:
            grouped_mapping(ifm, kernel, in_channels, out_channels,
                            groups, array, optimize_packing=optimize)
        except ReproError as grouped_error:
            if type(grouped_error) is type(error):
                return None
            return (f"grouped_mapping raised "
                    f"{type(grouped_error).__name__}, direct solve "
                    f"raised {type(error).__name__} for [{case}]")
        return (f"grouped_mapping succeeded where direct solve raised "
                f"{type(error).__name__} for [{case}]")

    mapping = grouped_mapping(ifm, kernel, in_channels, out_channels,
                              groups, array, optimize_packing=optimize)
    if mapping.sequential_cycles != groups * direct.cycles:
        return (f"sequential_cycles {mapping.sequential_cycles} != "
                f"groups x direct cycles {groups * direct.cycles} "
                f"for [{case}]")
    if mapping.packed_cycles > mapping.sequential_cycles:
        return (f"packed_cycles {mapping.packed_cycles} > sequential "
                f"{mapping.sequential_cycles} for [{case}]")
    if mapping.cycles != min(mapping.sequential_cycles,
                             mapping.packed_cycles):
        return f"GroupedMapping.cycles not the min for [{case}]"

    if in_channels % (groups + 1) or out_channels % (groups + 1):
        try:
            grouped_mapping(ifm, kernel, in_channels, out_channels,
                            groups + 1, array)
        except ConfigurationError:
            pass
        else:
            return (f"non-divisible groups={groups + 1} accepted "
                    f"for [{case}]")
    return None


# ----------------------------------------------------------------------
# Surface: faults (answers immune to an installed FaultPlan)
# ----------------------------------------------------------------------
@register_surface("faults",
                  summary="map + sweep answers identical under a random "
                          "installed FaultPlan (faults cost latency and "
                          "durability, never answers)")
def _faults_surface(rng: random.Random, tmp_dir: Path) -> Optional[str]:
    """The runtime substrate's core contract, fuzzed end to end.

    A seeded random :class:`~repro.runtime.faults.FaultPlan` fires
    store I/O faults (absorbed by the engine's retry + error counters)
    and backend crashes (absorbed by the circuit breaker's bit-identical
    numpy fallback) underneath a store-mounted, breaker-wrapped engine.
    Cold fault-free answers are the oracle for the solver path, the
    memo-hit path and the batched sweep path alike.
    """
    from .faults import FaultPlan, FaultSpec

    schemes = MappingEngine().schemes()
    array = _random_array(rng)
    layers = [_random_layer(rng) for _ in range(rng.randint(1, 3))]
    arrays = [array] + [_random_array(rng)
                        for _ in range(rng.randint(0, 2))]
    requests = [MappingRequest(layer=layer, array=array,
                               scheme=rng.choice(list(schemes)))
                for layer in layers]
    case = "; ".join(f"{r.scheme} {r.layer.shape_str}"
                     f" on {array.rows}x{array.cols}" for r in requests)

    cold_map = _canonical(MappingEngine(cache_size=0), requests)
    cold_sweep = _vector_tokens(MappingEngine(), layers, arrays, "vw-sdk")

    sites = ("store.read", "store.append", "backend.geo_cycles",
             "backend.finish")
    chosen = rng.sample(sites, rng.randint(1, len(sites)))
    specs = tuple(FaultSpec(site=site,
                            probability=rng.choice((0.1, 0.3, 0.6)))
                  for site in chosen)
    plan = FaultPlan(seed=rng.randrange(1 << 30), specs=specs)
    label = ",".join(f"{s.site}@{s.probability}" for s in specs)

    store_path = tmp_dir / f"faults-{rng.randrange(1 << 30)}.jsonl"
    with SolutionStore(store_path) as store:
        engine = MappingEngine(store=store, breaker=True)
        with plan.installed():
            first = _canonical(engine, requests)
            second = _canonical(engine, requests)  # memo / store-hit path
            swept = _vector_tokens(engine, layers, arrays, "vw-sdk")
        fired = sum(s["fired"] for s in plan.stats().values())
    store_path.unlink(missing_ok=True)
    Path(str(store_path) + ".lock").unlink(missing_ok=True)

    detail = f"[{case}] under plan {label} ({fired} faults fired)"
    if first != cold_map:
        return f"faulted map != cold for {detail}"
    if second != cold_map:
        return f"faulted map (warm caches) != cold for {detail}"
    if swept != cold_sweep:
        return (f"faulted sweep != cold for {detail}: "
                f"{swept} vs {cold_sweep}")
    return None


# ----------------------------------------------------------------------
# Replayable case coordinates + fixture corpus
# ----------------------------------------------------------------------
def case_seed(seed: int, surface: str, index: int) -> int:
    """Deterministic per-case RNG seed from the run coordinates."""
    digest = hashlib.sha256(f"{seed}:{surface}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_case(surface: str, seed: int, index: int, tmp_dir: Path,
             registry: Optional[SurfaceRegistry] = None) -> Optional[str]:
    """Run one differential case identified by ``(surface, seed,
    index)``; returns the mismatch description or ``None``."""
    reg = registry if registry is not None else DEFAULT_SURFACES
    info = reg.get(surface)
    rng = random.Random(case_seed(seed, surface, index))
    return info.runner(rng, tmp_dir)


def dump_fixture(corpus: Path, surface: str, seed: int, index: int,
                 mismatch: str) -> Optional[Path]:
    """Persist a divergence as a replayable JSON fixture.

    Returns the written path, or ``None`` when the corpus location is
    unusable (e.g. the fuzzer runs outside a repo checkout).
    """
    try:
        corpus.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    path = corpus / f"{surface}-seed{seed}-case{index}.json"
    payload = {"version": 1, "surface": surface, "seed": seed,
               "index": index, "mismatch": mismatch}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def replay_fixture(path: Path, tmp_dir: Path) -> Optional[str]:
    """Re-run the case a fixture records; ``None`` means it is fixed."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return run_case(payload["surface"], payload["seed"],
                    payload["index"], tmp_dir)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.fuzz",
        description="differential fuzz across the planning surfaces: "
                    + ", ".join(DEFAULT_SURFACES.names()))
    parser.add_argument("--budget-s", type=float, default=30.0,
                        help="total wall-clock budget in seconds, split "
                             "evenly across surfaces (default 30)")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed (default 0)")
    parser.add_argument("--max-cases", type=int, default=None,
                        help="optional cap on cases per surface")
    parser.add_argument("--surfaces", default=None,
                        help="comma-separated surface subset (default: "
                             "all registered)")
    parser.add_argument("--corpus", default=str(DEFAULT_CORPUS),
                        help="divergence fixture directory (default "
                             "tests/fixtures/fuzz)")
    args = parser.parse_args(argv)

    if args.surfaces:
        try:
            surfaces = [DEFAULT_SURFACES.get(name.strip()).name
                        for name in args.surfaces.split(",")
                        if name.strip()]
        except UnknownSurfaceError as error:
            parser.error(str(error))
    else:
        surfaces = list(DEFAULT_SURFACES.names())
    if not surfaces:
        parser.error("no fuzz surfaces selected")
    per_surface = args.budget_s / len(surfaces)
    corpus = Path(args.corpus)

    failures: List[Tuple[str, int, str]] = []
    total_cases = 0
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
        tmp_dir = Path(tmp)
        for surface in surfaces:
            surface_start = time.monotonic()
            index = 0
            while time.monotonic() - surface_start < per_surface:
                if args.max_cases is not None and index >= args.max_cases:
                    break
                try:
                    mismatch = run_case(surface, args.seed, index, tmp_dir)
                except Exception as error:  # crash = a finding too
                    mismatch = (f"unexpected {type(error).__name__}: "
                                f"{error}")
                if mismatch is not None:
                    failures.append((surface, index, mismatch))
                    fixture = dump_fixture(corpus, surface, args.seed,
                                           index, mismatch)
                    where = f" (fixture: {fixture})" if fixture else ""
                    print(f"FAIL [{surface}] seed={args.seed} "
                          f"index={index}: {mismatch}{where}")
                    index += 1
                    break  # one finding per surface; move on
                index += 1
            total_cases += index
            print(f"  {surface}: {index} case(s)")
    elapsed = time.monotonic() - start

    if failures:
        print(f"{len(failures)} divergence(s) in {total_cases} case(s) "
              f"over {elapsed:.1f}s, seed {args.seed} — replay with "
              f"repro.runtime.fuzz.run_case(surface, seed, index, tmp)")
        return 1
    print(f"ok: {total_cases} differential case(s) across "
          f"{len(surfaces)} surface(s) in {elapsed:.1f}s, seed "
          f"{args.seed} — all fast paths match their scalar oracles")
    return 0


if __name__ == "__main__":  # pragma: no cover - module CLI
    raise SystemExit(main())
