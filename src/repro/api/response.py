"""JSON-serialisable result envelopes for service-style use.

A :class:`MappingResponse` wraps one solved request: the original
request, the :class:`~repro.search.result.MappingSolution`, and cache
provenance (hit or solved, solver wall time).  A :class:`BatchResult`
wraps an ordered tuple of responses plus a snapshot of the engine's
cache statistics for the batch.  Both round-trip losslessly through
``to_dict``/``from_dict`` and ``to_json``/``from_json`` — the CLI's
``--json`` mode prints exactly these envelopes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.cycles import CycleBreakdown
from ..core.window import ParallelWindow
from ..search.result import MappingSolution
from .request import MappingRequest

__all__ = ["MappingResponse", "BatchResult", "CacheSnapshot",
           "solution_to_dict", "solution_from_dict"]


def solution_to_dict(solution: MappingSolution) -> Dict[str, object]:
    """A :class:`MappingSolution` as a plain JSON-serialisable dict."""
    bd = solution.breakdown
    return {
        "scheme": solution.scheme,
        "window": {"h": solution.window.h, "w": solution.window.w},
        "breakdown": {"n_pw": bd.n_pw, "ar": bd.ar, "ac": bd.ac,
                      "ic_t": bd.ic_t, "oc_t": bd.oc_t},
        "duplication": solution.duplication,
        "candidates_searched": solution.candidates_searched,
        "cycles": solution.cycles,
        "table_cell": solution.table_cell,
    }


def solution_from_dict(data: Dict[str, object],
                       request: MappingRequest) -> MappingSolution:
    """Rebuild a solution from :func:`solution_to_dict` output.

    The layer/array come from *request* — the envelope stores them once,
    on the request side.
    """
    window = ParallelWindow(h=data["window"]["h"], w=data["window"]["w"])
    bd = data["breakdown"]
    breakdown = CycleBreakdown(n_pw=bd["n_pw"], ar=bd["ar"], ac=bd["ac"],
                               ic_t=bd["ic_t"], oc_t=bd["oc_t"])
    return MappingSolution(
        scheme=data["scheme"], layer=request.layer, array=request.array,
        window=window, breakdown=breakdown,
        duplication=data.get("duplication", 1),
        candidates_searched=data.get("candidates_searched", 0),
    )


@dataclass(frozen=True)
class CacheSnapshot:
    """Engine cache statistics at one point in time.

    On an engine snapshot ``hits`` and ``misses`` count lookups in the
    in-process solution memo (L1): one per :meth:`MappingEngine.map
    <repro.api.engine.MappingEngine.map>` call and one per distinct key
    of a :meth:`~repro.api.engine.MappingEngine.map_batch`.
    ``solver_calls`` is the L1 misses; a miss the persistent store or
    another thread's in-flight solve answers runs no solver of its own.
    A batch snapshot (:attr:`BatchResult.stats`) instead counts the
    batch's responses with and without ``cached``.

    Engine-level snapshots (:attr:`MappingEngine.stats
    <repro.api.engine.MappingEngine.stats>`) additionally carry the
    engine's compute ``backend`` name.  Batch-scoped snapshots leave
    ``backend`` as ``None`` and the serialised envelope then omits the
    ``backend`` key, so pre-existing JSON consumers see byte-identical
    output.

    Engines carrying runtime substrate report it the same way:
    circuit-breaker counters (``breaker_state`` is ``None`` on
    breaker-less engines and the envelope omits the ``breaker`` key),
    persistent-store counters (``store_attached`` gates the ``store``
    key), and ``coalesced`` — requests served by another thread's
    in-flight solve (emitted only when non-zero, so substrate-free
    envelopes stay byte-identical).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    backend: Optional[str] = None
    breaker_state: Optional[str] = None
    breaker_trips: int = 0
    breaker_fallbacks: int = 0
    breaker_probes: int = 0
    store_attached: bool = False
    store_hits: int = 0
    store_misses: int = 0
    store_records: int = 0
    store_errors: int = 0
    coalesced: int = 0

    @property
    def solver_calls(self) -> int:
        """The L1 misses: at most one solver run each."""
        return self.misses

    @property
    def requests(self) -> int:
        """Total requests resolved (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from cache (0.0 when idle)."""
        return self.hits / self.requests if self.requests else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (backend keys only when present)."""
        data: Dict[str, object] = {
            "hits": self.hits, "misses": self.misses,
            "evictions": self.evictions, "size": self.size}
        if self.backend is not None:
            data["backend"] = self.backend
        if self.breaker_state is not None:
            data["breaker"] = {"state": self.breaker_state,
                               "trips": self.breaker_trips,
                               "fallbacks": self.breaker_fallbacks,
                               "probes": self.breaker_probes}
        if self.store_attached:
            data["store"] = {"hits": self.store_hits,
                             "misses": self.store_misses,
                             "records": self.store_records,
                             "errors": self.store_errors}
        if self.coalesced:
            data["coalesced"] = self.coalesced
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CacheSnapshot":
        """Inverse of :meth:`to_dict`."""
        breaker = data.get("breaker", {})
        store = data.get("store")
        return cls(hits=data.get("hits", 0), misses=data.get("misses", 0),
                   evictions=data.get("evictions", 0),
                   size=data.get("size", 0),
                   backend=data.get("backend"),
                   breaker_state=breaker.get("state"),
                   breaker_trips=breaker.get("trips", 0),
                   breaker_fallbacks=breaker.get("fallbacks", 0),
                   breaker_probes=breaker.get("probes", 0),
                   store_attached=store is not None,
                   store_hits=(store or {}).get("hits", 0),
                   store_misses=(store or {}).get("misses", 0),
                   store_records=(store or {}).get("records", 0),
                   store_errors=(store or {}).get("errors", 0),
                   coalesced=data.get("coalesced", 0))

    def __str__(self) -> str:  # noqa: D105 - log line
        return (f"{self.hits} hits / {self.misses} misses "
                f"({self.hit_rate * 100:.0f}% hit rate, "
                f"{self.size} cached)")


@dataclass(frozen=True)
class MappingResponse:
    """One solved mapping request, with cache provenance.

    Attributes
    ----------
    request:
        The request as submitted (metadata intact).
    solution:
        The mapping solution, rebound to the request's layer (a cache
        hit from an identically-shaped layer still reports *this*
        request's layer name/repeats).
    cached:
        Whether the solution came from the engine's memo, its store or
        another request's solve rather than a solver run of its own.
    solve_ms:
        Solver wall-clock milliseconds (0.0 on cache hits).
    """

    request: MappingRequest
    solution: MappingSolution
    cached: bool = False
    solve_ms: float = field(default=0.0, compare=False)

    @property
    def cycles(self) -> int:
        """Shortcut to the solution's total computing cycles."""
        return self.solution.cycles

    @property
    def cache_key(self) -> str:
        """The request's canonical cache key."""
        return self.request.cache_key

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable envelope."""
        return {
            "request": self.request.to_dict(),
            "solution": solution_to_dict(self.solution),
            "cache": {"hit": self.cached, "key": self.cache_key},
            "solve_ms": round(self.solve_ms, 3),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MappingResponse":
        """Inverse of :meth:`to_dict`."""
        request = MappingRequest.from_dict(data["request"])
        solution = solution_from_dict(data["solution"], request)
        cache = data.get("cache", {})
        return cls(request=request, solution=solution,
                   cached=cache.get("hit", False),
                   solve_ms=data.get("solve_ms", 0.0))

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The envelope as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MappingResponse":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class BatchResult:
    """Ordered responses for a batch, plus the batch's cache statistics.

    ``responses[i]`` answers ``requests[i]`` of the submitted batch —
    order is preserved regardless of executor scheduling.
    ``stats.hits``/``stats.misses`` are tallied for this batch alone
    (exact even when the engine is shared across threads);
    ``stats.evictions``/``stats.size`` describe the engine's cache
    after the batch.
    """

    responses: Tuple[MappingResponse, ...]
    stats: CacheSnapshot = CacheSnapshot()
    elapsed_ms: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "responses", tuple(self.responses))

    def __len__(self) -> int:  # noqa: D105
        return len(self.responses)

    def __iter__(self) -> Iterator[MappingResponse]:  # noqa: D105
        return iter(self.responses)

    def __getitem__(self, index: int) -> MappingResponse:  # noqa: D105
        return self.responses[index]

    @property
    def solutions(self) -> Tuple[MappingSolution, ...]:
        """Just the solutions, in request order."""
        return tuple(resp.solution for resp in self.responses)

    @property
    def total_cycles(self) -> int:
        """Sum of cycles across all responses."""
        return sum(resp.cycles for resp in self.responses)

    def by_scheme(self) -> Dict[str, List[MappingResponse]]:
        """Responses grouped by scheme, preserving request order."""
        grouped: Dict[str, List[MappingResponse]] = {}
        for resp in self.responses:
            grouped.setdefault(resp.request.scheme, []).append(resp)
        return grouped

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable envelope."""
        return {
            "responses": [resp.to_dict() for resp in self.responses],
            "stats": self.stats.to_dict(),
            "elapsed_ms": round(self.elapsed_ms, 3),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BatchResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            responses=tuple(MappingResponse.from_dict(item)
                            for item in data["responses"]),
            stats=CacheSnapshot.from_dict(data.get("stats", {})),
            elapsed_ms=data.get("elapsed_ms", 0.0),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The envelope as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BatchResult":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))
