"""The unified mapping API: registry, requests, engine, envelopes.

This package is the single front door for all mapping work::

    from repro.api import MappingEngine, MappingRequest, BatchRequest

    engine = MappingEngine()
    response = engine.map(MappingRequest(layer, array, "vw-sdk"))
    print(response.solution.cycles, response.cached)

    batch = BatchRequest.from_network(resnet18(), array,
                                      schemes=("im2col", "sdk", "vw-sdk"))
    result = engine.map_batch(batch)       # concurrent, order-preserving
    print(result.stats)                    # cache hits/misses for the batch
    print(result.to_json())                # service-ready envelope

New schemes plug in with one decorator::

    from repro.api import register_scheme

    @register_scheme("my-scheme", capabilities=("search",))
    def my_solution(layer, array):
        ...

Legacy entry points (``repro.search.solve``, ``map_network``,
``compare_schemes``, ``plan_pipeline``, the CLI) all route through the
shared :func:`default_engine`, so identical
``(layer geometry, array, scheme)`` problems are solved exactly once
per process.
"""

from .engine import MappingEngine, default_engine, set_default_engine
from .registry import (
    DEFAULT_REGISTRY,
    DuplicateSchemeError,
    SchemeInfo,
    SolverRegistry,
    UnknownSchemeError,
    register_scheme,
)
from .request import BatchRequest, MappingRequest
from .response import BatchResult, CacheSnapshot, MappingResponse

__all__ = [
    # registry
    "SolverRegistry",
    "SchemeInfo",
    "register_scheme",
    "DEFAULT_REGISTRY",
    "UnknownSchemeError",
    "DuplicateSchemeError",
    # requests
    "MappingRequest",
    "BatchRequest",
    # engine
    "MappingEngine",
    "default_engine",
    "set_default_engine",
    # responses
    "MappingResponse",
    "BatchResult",
    "CacheSnapshot",
]
