"""The mapping engine: one front door for all mapping work.

:class:`MappingEngine` resolves :class:`~repro.api.request.MappingRequest`
objects through a scheme registry, memoizes solutions in a bounded
:class:`~repro.core.cache.LRUMemo` keyed by the scheme's registry
version and the request's canonical hash, and resolves a batch's
misses in order on the calling thread.  :meth:`~MappingEngine.map` and
:meth:`~MappingEngine.map_batch` share one lookup order: one memo
``get`` per distinct key, and on a miss one path that tries the
persistent store, then a coalesced solve.  Every entry point of the
library — ``repro.search.solve``,
``repro.networks.map_network`` / ``compare_schemes``,
``repro.chip.plan_pipeline``, the experiment drivers and the CLI — routes
through one shared engine (:func:`default_engine`), so a full-network
comparison across schemes solves each distinct ``(geometry, array,
scheme)`` problem exactly once: VGG/ResNet repeat conv shapes heavily
and the paper's Algorithm 1 scan is the hot path this amortises.

The batch path composes with the vectorized search core: each cache
miss for a search scheme (``vw-sdk`` and its ablations) evaluates the
whole window grid as one :class:`~repro.core.lattice.CycleLattice`
instead of a scalar Python scan, so an uncached batch is NumPy-bound
and a warmed batch is memo-bound.

Cache-hit solutions are *rebound* to the requesting layer
(``dataclasses.replace(sol, layer=request.layer)``), so a hit served
from conv3_1's solution still reports conv3_2's name and repeat count
downstream — pipeline planning and weighted cycle totals stay exact.

On top of the per-problem memo, the engine exposes the *batched
lattice* layer (:meth:`MappingEngine.network_sweep` /
:meth:`~MappingEngine.network_cycles` /
:meth:`~MappingEngine.sweep_cycles`): for the analytically-batchable
schemes a whole network's cycle total — for one array or a sweep of
candidate arrays — is read off one shared
:class:`~repro.core.sweep.NetworkLattice` instead of per-layer solver
runs, which is what the DSE bisections and Pareto sweeps probe.

Chip-level planning gets the same treatment
(:meth:`MappingEngine.chip_lattice` / :meth:`~MappingEngine.chip_sweep`):
the min-max greedy's budget-independent state is precomputed once per
``(network, array, scheme)`` as a :class:`~repro.chip.sweep.ChipLattice`
and replayed per array-count probe, so chip-sweep grids and Pareto
frontiers never re-run the per-probe ``heapq`` allocator, and
``smallest_chip`` reads its answer off the lattice in closed form.

The engine can carry the fault-tolerant runtime substrate
(:mod:`repro.runtime`, ``docs/robustness.md``): a crash-safe
persistent :class:`~repro.runtime.store.SolutionStore` mounted as an
L2 cache below the LRU memo (under the memo's own key, so a fleet of
processes shares one warm cache across restarts), in-flight
coalescing so identical canonical hashes share
one solve across threads, deadline-aware
:class:`~repro.runtime.retry.RetryPolicy` around store I/O, a
:class:`~repro.runtime.breaker.BreakerBackend` circuit breaker
demoting a crashing compute backend to the bit-identical numpy
reference, and :class:`~repro.runtime.deadline.Deadline` propagation
into the chunked sweep loops.  All of it is opt-in and observable
through :attr:`MappingEngine.stats`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from ..core.array import PIMArray
from ..core.backend import Backend, get_backend
from ..core.cache import LRUMemo
from ..core.layer import ConvLayer
from ..core.sweep import NetworkLattice
from ..core.types import ConfigurationError
from ..runtime.breaker import BreakerBackend, CircuitBreaker
from ..runtime.deadline import Deadline
from ..runtime.retry import RetryPolicy, TransientError
from ..runtime.store import SolutionStore
from ..search.result import MappingSolution
from .registry import DEFAULT_REGISTRY, SolverRegistry
from .request import BatchRequest, MappingRequest
from .response import (BatchResult, CacheSnapshot, MappingResponse,
                       solution_from_dict, solution_to_dict)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..chip.sweep import ChipLattice, ChipSweep
    from ..core.cost import CostParams
    from ..dse.pareto import ChipDesignPoint
    from ..pim.replay import FidelityReport, FidelitySpec

__all__ = ["MappingEngine", "MODEL_REVISION", "default_engine",
           "set_default_engine"]

#: Revision of the cycle model's answers, the first part of every memo
#: and store key.  Any change that alters an answer bumps it, so a
#: store file written before the change reads as misses and is
#: re-solved instead of serving stale solutions.  Revision 2 counts
#: windows on the stride grid: strided layers stop falling back to
#: im2col under ``vw-sdk`` and SDK spaces its copies by the stride.
MODEL_REVISION = 2

#: map_batch accepts a BatchRequest or any iterable of requests.
Requests = Union[BatchRequest, Iterable[MappingRequest]]


class _Flight:
    """One in-flight solve other threads may wait on (coalescing)."""

    __slots__ = ("event", "result")

    def __init__(self) -> None:
        self.event = threading.Event()
        #: ``(solution, solve_ms)`` once the leader lands; stays
        #: ``None`` when the leader errored (followers then re-solve
        #: and surface the real error themselves).
        self.result: Optional[Tuple[MappingSolution, float]] = None


class MappingEngine:
    """Facade over the solver registry with memoization and batching.

    Parameters
    ----------
    registry:
        Scheme registry to resolve against; defaults to the process-wide
        :data:`~repro.api.registry.DEFAULT_REGISTRY`.
    cache_size:
        Maximum memoized solutions (LRU eviction).  ``0`` disables
        caching — useful for benchmarking the raw solver path.
    backend:
        Compute backend for the batched-lattice paths: ``"auto"``
        (numba when installed, else numpy), ``"numpy"``, ``"numba"``,
        or a :class:`~repro.core.backend.Backend` instance.  Resolved
        eagerly, so an explicit ``"numba"`` without numba installed
        fails here rather than mid-sweep.  Every backend is
        bit-identical (property-tested against the scalar oracle);
        the choice only moves wall-clock.
    store:
        Optional :class:`~repro.runtime.store.SolutionStore` mounted
        as a persistent L2 cache below the LRU memo.  LRU misses
        consult the store before solving; fresh solves append to it
        (best-effort: write failures are retried, then counted in
        ``stats`` and absorbed — persistence never changes results).
        Store and memo share the key ``"r{model revision}:{registry
        version}:{canonical hash}"``; it names no backend, since
        backends are bit-identical by contract and the store outlives
        any one process's choice.
    retry:
        :class:`~repro.runtime.retry.RetryPolicy` for store I/O
        (defaults to a small seeded exponential-backoff policy).
    breaker:
        Circuit-breaker control for the compute backend.  ``None``
        (auto) wraps only optimized backends — numpy, the reference,
        has nothing to fall back to; ``True`` always wraps (tests and
        the CI fault-smoke job use this to crash even a numpy
        primary); ``False`` never wraps.  Trip counts surface in
        :attr:`stats`.

    >>> engine = MappingEngine()
    >>> layer = ConvLayer.square(14, 3, 256, 256)
    >>> engine.solve(layer, PIMArray.square(512), "vw-sdk").cycles
    504
    >>> MappingEngine(backend="numpy").backend.name
    'numpy'
    """

    def __init__(self, registry: Optional[SolverRegistry] = None,
                 cache_size: int = 4096,
                 backend: Union[str, Backend] = "auto", *,
                 store: Optional[SolutionStore] = None,
                 retry: Optional[RetryPolicy] = None,
                 breaker: Optional[bool] = None,
                 breaker_cooldown: int = 64) -> None:
        if cache_size < 0:
            raise ConfigurationError(
                f"cache_size must be >= 0, got {cache_size}")
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self._backend = get_backend(backend)
        self._breaker: Optional[CircuitBreaker] = None
        wrap = (self._backend.name != "numpy") if breaker is None \
            else bool(breaker)
        if wrap:
            guarded = BreakerBackend(
                self._backend, breaker=CircuitBreaker(breaker_cooldown))
            self._backend = guarded
            self._breaker = guarded.breaker
        self._store = store
        self._retry = retry if retry is not None else RetryPolicy()
        self._store_errors = 0
        self._coalesced = 0
        self._runtime_lock = threading.Lock()
        self._inflight: Dict[str, "_Flight"] = {}
        self._cache: LRUMemo[MappingSolution] = LRUMemo(cache_size)
        self._sweeps: LRUMemo = LRUMemo(maxsize=self.SWEEP_CACHE_SIZE)

    @property
    def backend(self) -> Backend:
        """The engine's resolved compute backend."""
        return self._backend

    def _resolve_backend(self, backend: Union[str, Backend, None]) -> Backend:
        """Per-request override (``None`` means the engine's own)."""
        return self._backend if backend is None else get_backend(backend)

    # ------------------------------------------------------------------
    # Single-request paths
    # ------------------------------------------------------------------
    def solve(self, layer: ConvLayer, array: PIMArray,
              scheme: str) -> MappingSolution:
        """Memoized equivalent of the legacy ``repro.search.solve``.

        Raises :class:`~repro.api.registry.UnknownSchemeError` (a
        ``ValueError``) for unregistered scheme names.
        """
        return self.map(MappingRequest(layer=layer, array=array,
                                       scheme=scheme)).solution

    def _key(self, request: MappingRequest) -> str:
        """The memo and store key of *request*.

        :data:`MODEL_REVISION`, so a store written by an older model is
        never read; the scheme's registry version, so replacing or
        re-registering a solver (``replace=True`` / ``unregister``)
        never serves solutions the old solver computed; then the
        request's canonical hash.  No backend name enters it: solvers
        run on the process's ``"auto"`` backend whatever the engine's,
        backends are bit-identical by contract (re-proven by the
        breaker property suite), and the store outlives any one
        process's backend choice.
        """
        version = self.registry.version(request.scheme)
        return f"r{MODEL_REVISION}:{version}:{request.cache_key}"

    def _timed_solve(self, request: MappingRequest,
                     key: str) -> Tuple[MappingSolution, float]:
        """Run the solver for *request*, cache under *key*, return
        ``(solution, wall_ms)``.  The one place solver time is spent."""
        solver = self.registry.solver(request.scheme)
        start = time.perf_counter()
        solution = solver(request.layer, request.array)
        solve_ms = (time.perf_counter() - start) * 1000.0
        self._cache.put(key, solution)
        self._store_put(key, solution)
        return solution, solve_ms

    # -- persistent store (L2) + in-flight coalescing ------------------

    def _count_store_error(self) -> None:
        with self._runtime_lock:
            self._store_errors += 1

    def _store_get(self, request: MappingRequest,
                   key: str) -> Optional[MappingSolution]:
        """Look *request* up in the persistent store (``None`` on miss,
        on store failure, or on an undecodable record)."""
        store = self._store
        if store is None:
            return None
        try:
            payload = self._retry.call(lambda: store.get(key))
        except (TransientError, OSError):
            self._count_store_error()
            return None
        if not isinstance(payload, dict):
            return None
        try:
            return solution_from_dict(payload, request)
        except (KeyError, TypeError, ValueError):
            # A record from an incompatible schema: treat as a miss and
            # re-solve (the fresh put overwrites it, last-writer-wins).
            self._count_store_error()
            return None

    def _store_put(self, key: str, solution: MappingSolution) -> None:
        """Best-effort persistence: retried, then counted and absorbed
        — a dead store degrades durability, never answers."""
        store = self._store
        if store is None:
            return
        payload = solution_to_dict(solution)
        try:
            self._retry.call(lambda: store.put(key, payload))
        except (TransientError, OSError):
            self._count_store_error()

    def _solve_coalesced(self, request: MappingRequest, key: str,
                         deadline: Optional[Deadline] = None
                         ) -> Tuple[MappingSolution, float, bool]:
        """Solve *request*, sharing work with identical in-flight keys.

        Returns ``(solution, solve_ms, shared)`` — *shared* is True
        when another thread's solve answered this request.  A leader
        failure leaves followers to re-solve solo, so they surface the
        real error rather than a second-hand one.  ``cache_size=0``
        engines skip coalescing (the honest benchmarking baseline).

        A follower carrying a *deadline* waits at most the deadline's
        remaining budget for the leader — a request must never outwait
        its own deadline behind a slow leader.  On expiry it raises
        :class:`~repro.runtime.deadline.DeadlineExceededError`; if the
        wait timed out while budget remains (a clock race) it falls
        back to a solo solve instead of re-queueing behind the leader.
        """
        if self._cache.maxsize <= 0:
            solution, solve_ms = self._timed_solve(request, key)
            return solution, solve_ms, False
        with self._runtime_lock:
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._inflight[key] = flight
        assert flight is not None
        if leader:
            try:
                flight.result = self._timed_solve(request, key)
            finally:
                with self._runtime_lock:
                    self._inflight.pop(key, None)
                flight.event.set()
            solution, solve_ms = flight.result
            return solution, solve_ms, False
        timeout = None if deadline is None else deadline.remaining()
        if not flight.event.wait(timeout):
            if deadline is not None:
                deadline.check(partial={"coalesced_behind": key},
                               where="engine.coalesce")
            solution, solve_ms = self._timed_solve(request, key)
            return solution, solve_ms, False
        if flight.result is None:
            solution, solve_ms = self._timed_solve(request, key)
            return solution, solve_ms, False
        with self._runtime_lock:
            self._coalesced += 1
        solution, solve_ms = flight.result
        return solution, solve_ms, True

    def _resolve_miss(self, request: MappingRequest, key: str,
                      deadline: Optional[Deadline] = None
                      ) -> MappingResponse:
        """The memo-miss path of :meth:`map` and :meth:`map_batch`.

        The persistent store first (when mounted; a store hit
        back-fills the memo and reports ``cached=True``), then an
        in-flight-coalesced solver run (a follower served by another
        thread's solve reports ``cached=True`` and ``solve_ms=0``).
        """
        stored = self._store_get(request, key)
        if stored is not None:
            self._cache.put(key, stored)
            return MappingResponse(request=request,
                                   solution=self._rebind(stored, request),
                                   cached=True)
        solution, solve_ms, shared = self._solve_coalesced(request, key,
                                                           deadline)
        return MappingResponse(request=request,
                               solution=self._rebind(solution, request),
                               cached=shared,
                               solve_ms=0.0 if shared else solve_ms)

    def map(self, request: MappingRequest, *,
            deadline: Optional[Deadline] = None) -> MappingResponse:
        """Resolve one request into a :class:`MappingResponse`.

        Lookup order: one ``get`` on the in-process LRU memo, then, on
        a miss, :meth:`_resolve_miss`: the persistent store, then an
        in-flight-coalesced solver run.  Both cache tiers report
        ``cached=True``.  An optional *deadline* bounds the coalescing
        wait (see :meth:`_solve_coalesced`); cache lookups and solo
        solves are not interrupted — they are the work the deadline is
        budgeting for.

        >>> engine = MappingEngine()
        >>> request = MappingRequest(layer=ConvLayer.square(14, 3, 256, 256),
        ...                          array=PIMArray.square(512),
        ...                          scheme="vw-sdk")
        >>> engine.map(request).solution.cycles
        504
        >>> engine.map(request).cached
        True
        """
        self.registry.solver(request.scheme)  # fail fast
        key = self._key(request)
        cached = self._cache.get(key)
        if cached is not None:
            return MappingResponse(request=request,
                                   solution=self._rebind(cached, request),
                                   cached=True)
        return self._resolve_miss(request, key, deadline)

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------
    def map_batch(self, requests: Requests) -> BatchResult:
        """Resolve a batch; results preserve request order.

        Each distinct key in the batch gets one memo ``get``; every key
        that missed goes through :meth:`_resolve_miss`, as in
        :meth:`map`, in batch order on the calling thread: the solves
        hold the GIL, so a thread pool would only add its start-up
        cost, and concurrent callers still share solves through
        coalescing.  Duplicates inside the batch are therefore solved
        once and reuse their first occurrence's answer, so the
        solver-invocation count equals the number of *distinct
        uncached* problems, never the batch length.  (A
        ``cache_size=0`` engine skips deduplication — every request
        runs its solver, which is the honest baseline for
        benchmarking.)  ``stats.hits`` / ``stats.misses`` on the
        returned :class:`BatchResult` count the batch's responses with
        and without ``cached`` (exact even when the engine is shared
        across threads); ``evictions``/``size`` describe the engine's
        cache after the batch.

        >>> engine = MappingEngine()
        >>> layer = ConvLayer.square(14, 3, 256, 256)
        >>> batch = [MappingRequest(layer=layer, array=PIMArray.square(512),
        ...                         scheme=s) for s in ("im2col", "vw-sdk")]
        >>> [r.solution.cycles for r in engine.map_batch(batch).responses]
        [720, 504]
        """
        batch = (requests if isinstance(requests, BatchRequest)
                 else BatchRequest.of(requests))
        start = time.perf_counter()

        # Resolve schemes up front so an unknown name fails the whole
        # batch before any solver time is spent.
        for scheme in {request.scheme for request in batch}:
            self.registry.solver(scheme)

        # One slot per distinct key; with caching disabled, one per
        # request.  Each slot is looked up once, here, and keeps what
        # it found, so later puts in this batch cannot evict it.
        keys = [self._key(request) for request in batch]
        slots: Sequence[object] = (keys if self._cache.maxsize > 0
                                   else range(len(batch)))
        solutions: Dict[object, MappingSolution] = {}
        misses: Dict[object, Tuple[str, MappingRequest]] = {}
        for slot, key, request in zip(slots, keys, batch):
            if slot in solutions or slot in misses:
                continue
            solution = self._cache.get(key)
            if solution is None:
                misses[slot] = (key, request)
            else:
                solutions[slot] = solution
        resolved = {slot: self._resolve_miss(request, key)
                    for slot, (key, request) in misses.items()}

        responses: List[MappingResponse] = []
        for slot, request in zip(slots, batch):
            first = resolved.pop(slot, None)
            if first is not None:
                responses.append(first)
                solutions[slot] = first.solution
            else:
                responses.append(MappingResponse(
                    request=request,
                    solution=self._rebind(solutions[slot], request),
                    cached=True))
        hits = sum(response.cached for response in responses)
        after = self._cache.snapshot()
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        stats = CacheSnapshot(hits=hits, misses=len(responses) - hits,
                              evictions=after["evictions"],
                              size=after["size"])
        return BatchResult(responses=tuple(responses), stats=stats,
                           elapsed_ms=elapsed_ms)

    @staticmethod
    def _rebind(solution: MappingSolution,
                request: MappingRequest) -> MappingSolution:
        """Attach the requesting layer/array to a (possibly shared)
        solution so metadata like ``name``/``repeats`` stays correct."""
        if solution.layer is request.layer and solution.array is request.array:
            return solution
        return replace(solution, layer=request.layer, array=request.array)

    # ------------------------------------------------------------------
    # Network sweeps (batched lattices for DSE)
    # ------------------------------------------------------------------
    #: Bound on memoized :class:`NetworkLattice` objects.
    SWEEP_CACHE_SIZE = 32

    #: Registry capability tag declaring that a scheme's solver is the
    #: analytical form :class:`NetworkLattice` reproduces.  Replacing a
    #: solver (``register(..., replace=True)``) drops the tag unless the
    #: replacement explicitly re-claims it, which disables the fast path.
    BATCHABLE = "batchable"

    def _batchable(self, scheme: str) -> bool:
        """Whether *scheme* may take the batched-lattice fast path."""
        return (scheme in NetworkLattice.SUPPORTED
                and self.BATCHABLE in self.registry.get(scheme).capabilities)

    def network_sweep(self, network: Iterable[ConvLayer],
                      scheme: str = "vw-sdk"
                      ) -> Optional[NetworkLattice]:
        """The memoized batched lattice for *network*, or ``None``.

        *network* is any iterable of :class:`ConvLayer` (a
        :class:`repro.networks.Network` included; a generator is
        consumed once).  ``None`` means the scheme has no batchable
        analytical form (or its solver was replaced in the registry)
        and callers must take the memoized :meth:`map_batch` path
        instead.  Lattices are keyed by the per-layer geometry
        sequence alone, so equal-shape networks share one: a lattice
        involves no backend arithmetic, only its
        :meth:`~NetworkLattice.cycles_for` evaluation does.

        >>> engine = MappingEngine()
        >>> from repro.networks import resnet18
        >>> engine.network_sweep(resnet18()) is not None
        True
        >>> engine.network_sweep(resnet18(), "sdk") is None  # not batchable
        True
        """
        self.registry.solver(scheme)  # fail fast on unknown names
        if not self._batchable(scheme):
            return None
        layers = tuple(network)
        key = (scheme, NetworkLattice.geometry_key(layers))
        return self._sweeps.get_or_compute(
            key, lambda: NetworkLattice.for_network(layers, scheme))

    def network_cycles(self, network: Iterable[ConvLayer], array: PIMArray,
                       scheme: str = "vw-sdk") -> int:
        """Total cycles of *network* on *array* under *scheme*.

        Reads the shared :class:`NetworkLattice` when the scheme is
        batchable; otherwise resolves the layers through
        :meth:`map_batch`, so repeated probes of the same ``(layer,
        array, scheme)`` problems hit the solution memo either way.

        >>> engine = MappingEngine()
        >>> from repro.networks import resnet18
        >>> engine.network_cycles(resnet18(), PIMArray.square(512))
        4294
        """
        layers = tuple(network)
        sweep = self.network_sweep(layers, scheme)
        if sweep is not None:
            return sweep.network_cycles(array)
        batch = BatchRequest.of(MappingRequest(layer=layer, array=array,
                                               scheme=scheme)
                                for layer in layers)
        return sum(resp.solution.cycles
                   for resp in self.map_batch(batch).responses)

    def sweep_cycles(self, network: Iterable[ConvLayer],
                     arrays: Sequence[PIMArray],
                     scheme: str = "vw-sdk",
                     backend: Union[str, Backend, None] = None,
                     deadline: Optional[Deadline] = None) -> np.ndarray:
        """Total network cycles for *many* candidate arrays: ``(A,)``.

        The batchable schemes answer the whole sweep in one vectorized
        :meth:`NetworkLattice.cycles_for` call — run on the engine's
        backend (or the per-request *backend* override), whose scratch
        is allocated per chunk and dropped on return; the fallback
        resolves each array through the memoized batch path.

        With a :class:`~repro.runtime.deadline.Deadline`, the chunked
        sweep loop checkpoints cooperatively and an expired budget
        raises :class:`~repro.runtime.deadline.DeadlineExceededError`
        carrying the best-so-far partial totals.

        >>> engine = MappingEngine()
        >>> from repro.networks import resnet18
        >>> engine.sweep_cycles(resnet18(), [PIMArray.square(256),
        ...                                  PIMArray.square(512)]).tolist()
        [10287, 4294]
        """
        layers = tuple(network)
        arrays = list(arrays)
        sweep = self.network_sweep(layers, scheme)
        if sweep is not None:
            return sweep.cycles_for(arrays,
                                    backend=self._resolve_backend(backend),
                                    deadline=deadline)
        cycles = np.empty(len(arrays), dtype=np.int64)
        for i, array in enumerate(arrays):
            if deadline is not None:
                deadline.check(
                    partial={"completed": i, "total": len(arrays),
                             "cycles": cycles[:i].copy()},
                    where="sweep_cycles")
            cycles[i] = self.network_cycles(layers, array, scheme)
        return cycles

    # ------------------------------------------------------------------
    # Chip sweeps (batched greedy planning)
    # ------------------------------------------------------------------
    def chip_lattice(self, network: Iterable[ConvLayer],
                     array: Union[PIMArray, Sequence[PIMArray]],
                     scheme: str = "vw-sdk", *,
                     cost_params: Optional["CostParams"] = None
                     ) -> "ChipLattice":
        """The memoized :class:`~repro.chip.sweep.ChipLattice` for
        ``(network, array, scheme, cost_params)``.

        The lattice precomputes the min-max greedy's budget-independent
        state (per-stage latency staircases merged into consideration
        order) from the engine's per-layer solutions, so
        :meth:`chip_sweep` grids replay it instead of re-running the
        ``heapq`` greedy, while :meth:`chip_pareto` frontiers and
        ``smallest_chip`` read it in closed form.  *array* is one
        :class:`~repro.core.array.PIMArray` for a homogeneous chip or a
        per-layer sequence for a heterogeneous pool plan
        (:mod:`repro.chip.pools`).  With *cost_params*
        (:class:`~repro.core.cost.CostParams`) every stage is priced
        once and sweeps also report energy/area.  Keyed by the
        per-layer ``(geometry, array, repeats)`` sequence, the cost
        params and the scheme's registry version (names never change
        plan numbers).

        >>> engine = MappingEngine()
        >>> from repro.networks import resnet18
        >>> engine.chip_lattice(resnet18(),
        ...                     PIMArray.square(512)).floor_arrays
        23
        """
        from ..chip.sweep import ChipLattice
        layers = tuple(network)
        if isinstance(array, PIMArray):
            arrays = (array,) * len(layers)
        else:
            arrays = tuple(array)
            if len(arrays) != len(layers):
                raise ConfigurationError(
                    f"chip_lattice got {len(arrays)} per-stage arrays "
                    f"for {len(layers)} layers")
        key = ("chip", scheme, self.registry.version(scheme),
               tuple((a.rows, a.cols) for a in arrays), cost_params,
               tuple((geo, layer.repeats) for geo, layer in
                     zip(NetworkLattice.geometry_key(layers), layers)))
        return self._sweeps.get_or_compute(
            key, lambda: ChipLattice.for_solutions(
                [self.solve(layer, arr, scheme)
                 for layer, arr in zip(layers, arrays)],
                cost_params=cost_params))

    def chip_sweep(self, network: Iterable[ConvLayer],
                   array: Union[PIMArray, Sequence[PIMArray]],
                   counts: Sequence[int],
                   scheme: str = "vw-sdk", *,
                   cost_params: Optional["CostParams"] = None,
                   deadline: Optional[Deadline] = None
                   ) -> "ChipSweep":
        """Greedy pipeline outcomes for many chip array counts.

        One vectorized replay of the shared :meth:`chip_lattice` over
        the whole *counts* vector — bit-identical per probe to
        :func:`repro.chip.plan_pipeline` on a
        :class:`~repro.chip.config.ChipConfig` with that count.
        Returns a :class:`~repro.chip.sweep.ChipSweep`; with
        *cost_params* its probes also carry per-inference energy,
        silicon cells and microsecond latency (bit-identical to
        per-point scalar :func:`~repro.core.cost.cost_report` replay).

        >>> engine = MappingEngine()
        >>> from repro.networks import resnet18
        >>> sweep = engine.chip_sweep(resnet18(), PIMArray.square(512),
        ...                           [32, 64, 256])
        >>> sweep.bottleneck_cycles.tolist()
        [243, 81, 18]
        """
        lattice = self.chip_lattice(network, array, scheme,
                                    cost_params=cost_params)
        return lattice.sweep(counts, deadline=deadline)

    def chip_pareto(self, network: Iterable[ConvLayer],
                    geometries: Optional[Sequence[PIMArray]] = None,
                    scheme: str = "vw-sdk", *, pools: bool = False,
                    cost_params: Optional["CostParams"] = None,
                    max_cells: int = 512 * 512,
                    sides: Optional[Sequence[int]] = None,
                    max_arrays: Optional[int] = None,
                    target_bottleneck: Optional[int] = None,
                    fidelity: Optional[object] = None
                    ) -> List["ChipDesignPoint"]:
        """Cells / energy / latency frontier of chip deployments.

        Facade over :func:`repro.dse.pareto.chip_pareto` bound to this
        engine, so every plan's lattice and per-layer solution comes
        from the shared memos.  ``pools=True`` adds the heterogeneous
        best-fit plan (:mod:`repro.chip.pools`) to the candidate set;
        its frontier then dominates-or-equals the homogeneous one.
        *fidelity* (anything
        :meth:`repro.pim.replay.FidelitySpec.of` accepts) attaches the
        noise-aware ``accuracy_proxy`` via :meth:`point_fidelity`.

        >>> engine = MappingEngine()
        >>> from repro.networks import resnet18
        >>> front = engine.chip_pareto(
        ...     resnet18(), [PIMArray.square(s) for s in (256, 512)])
        >>> front[-1].bottleneck_cycles
        1
        """
        from ..dse.pareto import chip_pareto
        return chip_pareto(network, geometries, scheme, pools=pools,
                           cost_params=cost_params, max_cells=max_cells,
                           sides=sides, max_arrays=max_arrays,
                           target_bottleneck=target_bottleneck,
                           fidelity=fidelity, engine=self)

    def point_fidelity(self, solutions: Sequence[MappingSolution],
                       fidelity: Optional[object] = None
                       ) -> "FidelityReport":
        """Memoized functional replay of one deployment plan.

        Replays the per-stage *solutions* (a
        :attr:`~repro.dse.pareto.ChipDesignPoint.solutions` tuple)
        through the functional :class:`~repro.pim.engine.PIMEngine`
        under the noise model of *fidelity* (anything
        :meth:`repro.pim.replay.FidelitySpec.of` accepts) and returns
        the :class:`~repro.pim.replay.FidelityReport`.  Reports are
        memoized in the engine's sweep cache keyed by the spec (noise
        model + input seed) and each stage's ``(scheme, registry
        version, layer geometry, array shape)`` — many
        :meth:`chip_pareto` points share one plan, so a whole
        ``fidelity=`` frontier typically costs a handful of replays.

        >>> engine = MappingEngine()
        >>> from repro.networks import resnet18
        >>> front = engine.chip_pareto(
        ...     resnet18(), [PIMArray.square(512)])
        >>> engine.point_fidelity(front[0].solutions).accuracy_proxy
        1.0
        """
        from ..pim.replay import FidelitySpec, replay_point
        spec = FidelitySpec.of(fidelity)
        stages = tuple(solutions)
        if not stages:
            raise ConfigurationError(
                "point_fidelity needs at least one per-stage solution; "
                "got an empty plan")
        key = ("fidelity", spec,
               tuple(self._fidelity_stage_key(sol) for sol in stages))
        return self._sweeps.get_or_compute(
            key, lambda: replay_point(stages, noise=spec.noise,
                                      seed=spec.seed))

    def _fidelity_stage_key(self, solution: MappingSolution) -> tuple:
        """Memo-key fragment for one replayed stage: solver identity
        plus the functional geometry (layer + array shape).  Excludes
        display-only attributes so renamed layers share replays."""
        layer, array = solution.layer, solution.array
        return (solution.scheme, self.registry.version(solution.scheme),
                (layer.ifm_h, layer.ifm_w, layer.kernel_h, layer.kernel_w,
                 layer.in_channels, layer.out_channels, layer.stride,
                 layer.padding),
                (array.rows, array.cols))

    # ------------------------------------------------------------------
    # Introspection / management
    # ------------------------------------------------------------------
    @property
    def store(self) -> Optional[SolutionStore]:
        """The mounted persistent store, if any."""
        return self._store

    @property
    def breaker(self) -> Optional[CircuitBreaker]:
        """The backend circuit breaker, if the backend is wrapped."""
        return self._breaker

    @property
    def stats(self) -> CacheSnapshot:
        """Lifetime cache statistics of this engine: the solution
        memo's :meth:`~repro.core.cache.LRUMemo.snapshot` (one hit or
        miss per L1 lookup), annotated with the resolved backend name
        and — when the runtime substrate is mounted — breaker and
        persistent-store counters."""
        memo = self._cache.snapshot()
        snap = CacheSnapshot(hits=memo["hits"], misses=memo["misses"],
                             evictions=memo["evictions"], size=memo["size"],
                             backend=self._backend.name,
                             coalesced=self._coalesced)
        if self._breaker is not None:
            brk = self._breaker.snapshot()
            snap = replace(snap, breaker_state=str(brk["state"]),
                           breaker_trips=int(brk["trips"]),
                           breaker_fallbacks=int(brk["fallback_calls"]),
                           breaker_probes=int(brk["probes"]))
        if self._store is not None:
            st = self._store.stats()
            snap = replace(snap, store_attached=True,
                           store_hits=st["hits"],
                           store_misses=st["misses"],
                           store_records=st["records"],
                           store_errors=self._store_errors)
        return snap

    @property
    def cache_len(self) -> int:
        """Number of currently memoized solutions."""
        return len(self._cache)

    def cache_clear(self) -> None:
        """Drop all memoized solutions and network sweeps (counters
        keep accruing)."""
        self._cache.clear()
        self._sweeps.clear()

    def schemes(self) -> Tuple[str, ...]:
        """Scheme names this engine can resolve."""
        return self.registry.names()

    def __repr__(self) -> str:  # noqa: D105 - debugging aid
        snap = self.stats
        return (f"MappingEngine(schemes={len(self.registry)}, "
                f"backend={self._backend.name}, "
                f"cache={snap.size}/{self._cache.maxsize}, "
                f"hits={snap.hits}, misses={snap.misses})")


_default_engine: Optional[MappingEngine] = None
_default_lock = threading.Lock()


def default_engine() -> MappingEngine:
    """The process-wide shared engine every legacy entry point uses.

    Created lazily on first use against the default registry.  Use
    :func:`set_default_engine` to swap in a differently-configured
    instance (e.g. a larger cache for a long-running service).

    >>> default_engine() is default_engine()    # one engine per process
    True
    """
    global _default_engine
    with _default_lock:
        if _default_engine is None:
            _default_engine = MappingEngine()
        return _default_engine


def set_default_engine(engine: Optional[MappingEngine]) -> None:
    """Replace the shared engine (``None`` resets to a fresh default)."""
    global _default_engine
    with _default_lock:
        _default_engine = engine
