"""Mapping-as-a-service: the async HTTP front door on MappingEngine.

``vwsdk serve`` (or :class:`~repro.server.app.MappingServer` directly)
exposes the engine's planning surfaces over stdlib HTTP/1.1 + JSON —
``/v1/map``, ``/v1/map_batch``, ``/v1/network_sweep``,
``/v1/chip_pareto``, ``/v1/healthz``, ``/v1/stats`` — dispatching
CPU-bound lattice work to long-lived worker processes, driven over
their stdin/stdout pipes, which all mount one
:class:`~repro.runtime.store.SolutionStore` as the fleet-wide warm L2.
See ``docs/serving.md``.
"""

from .app import MappingServer, ServerThread, serve

__all__ = ["MappingServer", "ServerThread", "serve"]
