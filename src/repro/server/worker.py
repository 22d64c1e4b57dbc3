"""Worker-tier entry points for the mapping service.

Each worker is its own interpreter, started by the server with
:func:`main` and driven over its stdin/stdout pipes.  It runs
:func:`init_worker` once, building one :class:`MappingEngine` with the
shared :class:`~repro.runtime.store.SolutionStore` mounted as its L2 —
the store file is ``flock``-guarded, so a fleet of workers appending
and compacting concurrently stays frame-intact.

Frames are an 8-byte big-endian length followed by a pickle
(:func:`pack_frame`).  The server sends ``(function name, body)``; the
worker answers with that function's result dict.  Each side unpickles
only what the other side of this program wrote; HTTP bodies stay JSON.
The first frame a worker writes is its ready frame, in the same
``{"ok": ...}`` form: a success once :func:`init_worker` has run, or
the error it raised.

Worker functions never raise across the process boundary: every
entry point returns ``{"ok": True, "result": ...}`` or ``{"ok": False,
"error": {...}}`` with the error already mapped onto the
:class:`~repro.core.types.ReproError` taxonomy as a structured payload
(type, message, HTTP status, JSON-ified partials).  Raising would
depend on exception *picklability* — ``DeadlineExceededError`` carries
keyword-only partials (often numpy arrays) that a default pickle
round-trip silently drops — so the contract is data out, never
exceptions.  Only a worker process dying surfaces in the parent, as
EOF on its stdout, which the server maps to a 503 and a replacement
worker.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import sys
from typing import Any, BinaryIO, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..api.engine import MappingEngine, set_default_engine
from ..api.registry import UnknownSchemeError
from ..api.request import (BatchRequest, MappingRequest, array_from_dict,
                           layer_from_dict)
from ..chip.pipeline import InsufficientArraysError
from ..core.array import PIMArray
from ..core.layer import ConvLayer
from ..core.types import (ConfigurationError, MappingError, ReproError,
                          require_positive_int)
from ..dse.requirements import InfeasibleTargetError
from ..networks.zoo import get_network
from ..runtime.deadline import Deadline, DeadlineExceededError
from ..runtime.retry import TransientError
from ..runtime.store import SolutionStore

__all__ = ["init_worker", "run_map", "run_map_batch", "run_network_sweep",
           "run_chip_pareto", "run_stats", "crash", "status_for",
           "error_payload", "FRAME_HEADER", "pack_frame", "main"]

#: One engine per worker process, built by :func:`init_worker`.
_ENGINE: Optional[MappingEngine] = None


def init_worker(store_path: Optional[str], backend: str,
                cache_size: int) -> None:
    """Build this worker's engine (+ shared L2), once per process."""
    global _ENGINE
    store = SolutionStore(store_path) if store_path else None
    _ENGINE = MappingEngine(cache_size=cache_size, backend=backend,
                            store=store)
    set_default_engine(_ENGINE)


def _engine() -> MappingEngine:
    global _ENGINE
    if _ENGINE is None:  # direct (in-process) use, e.g. tests
        _ENGINE = MappingEngine()
    return _ENGINE


# ----------------------------------------------------------------------
# Error taxonomy -> structured HTTP payloads
# ----------------------------------------------------------------------

#: ``ReproError`` subclasses -> HTTP status, most specific first.
_STATUS_MAP: Tuple[Tuple[type, int], ...] = (
    (UnknownSchemeError, 400),      # did-you-mean lives in the message
    (ConfigurationError, 400),      # malformed envelope / spec
    (DeadlineExceededError, 504),   # budget spent; partials attached
    (InfeasibleTargetError, 422),   # legitimately impossible target
    (InsufficientArraysError, 422),
    (MappingError, 422),            # scheme cannot place the layer
    (TransientError, 503),          # retry-able substrate failure
    (ReproError, 500),
)


def status_for(exc: BaseException) -> int:
    """The HTTP status an exception maps onto (500 when unknown)."""
    for klass, status in _STATUS_MAP:
        if isinstance(exc, klass):
            return status
    return 500


def _jsonable(value: Any) -> Any:
    """Best-effort JSON projection of deadline partials and the like."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def error_payload(exc: BaseException) -> Dict[str, Any]:
    """The structured wire form of one error."""
    payload: Dict[str, Any] = {
        "type": exc.__class__.__name__,
        "message": str(exc),
        "status": status_for(exc),
    }
    if isinstance(exc, DeadlineExceededError):
        payload["where"] = exc.where
        payload["budget_s"] = exc.budget_s
        if exc.partial is not None:
            payload["partial"] = _jsonable(exc.partial)
    return payload


def _guarded(fn: Callable[[], Any]) -> Dict[str, Any]:
    """Run *fn*, folding the ReproError taxonomy into wire payloads.

    The last-resort ``Exception`` arm upholds the tier's "data out,
    never exceptions" contract even for bugs outside the taxonomy —
    they become structured 500s instead of raises that would end the
    worker process.
    """
    try:
        return {"ok": True, "result": fn()}
    except ReproError as exc:
        return {"ok": False, "error": error_payload(exc)}
    except Exception as exc:
        return {"ok": False, "error": error_payload(exc)}


# ----------------------------------------------------------------------
# Body parsing helpers (all failures -> ConfigurationError -> 400)
# ----------------------------------------------------------------------

def _request_from(envelope: Any) -> MappingRequest:
    try:
        return MappingRequest.from_dict(_require_dict(envelope))
    except ReproError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"bad request envelope: {exc!r}") from None


def _require_dict(body: Any) -> Dict[str, Any]:
    if not isinstance(body, dict):
        raise ConfigurationError(
            f"request body must be a JSON object, got {type(body).__name__}")
    return body


def _deadline_from(body: Dict[str, Any]) -> Optional[Deadline]:
    raw = body.get("deadline_ms")
    if raw is None:
        return None
    # Only a finite JSON number: a string or bool is not coerced, and
    # NaN, Infinity or an int past the float range never means "no
    # deadline".
    if (isinstance(raw, bool) or not isinstance(raw, (int, float))
            or not 0 < raw <= sys.float_info.max):
        raise ConfigurationError(
            f"deadline_ms must be a finite JSON number > 0, got {raw!r}")
    return Deadline(raw / 1000.0)


def _layers_from(body: Dict[str, Any]) -> List[ConvLayer]:
    """``{"layers": [...]}`` or ``{"network": "<zoo name>"}``."""
    if "layers" in body:
        raw = body["layers"]
        if not isinstance(raw, list) or not raw:
            raise ConfigurationError(
                "layers must be a non-empty JSON array of layer specs")
        return [layer_from_dict(entry) for entry in raw]
    if "network" in body:
        try:
            return list(get_network(str(body["network"])))
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
    raise ConfigurationError(
        "body needs either 'layers' (list of layer specs) or "
        "'network' (zoo name)")


def _arrays_from(body: Dict[str, Any]) -> List[PIMArray]:
    """``"arrays"``: list of sides (ints) or ``[rows, cols]`` pairs."""
    raw = body.get("arrays")
    if not isinstance(raw, list) or not raw:
        raise ConfigurationError(
            "arrays must be a non-empty JSON array of sides or "
            "[rows, cols] pairs")
    arrays: List[PIMArray] = []
    for entry in raw:
        if isinstance(entry, dict):
            arrays.append(array_from_dict(entry))
        elif isinstance(entry, list):
            if len(entry) != 2:
                raise ConfigurationError(
                    f"array pair must be [rows, cols], got {entry!r}")
            arrays.append(PIMArray(rows=entry[0], cols=entry[1]))
        elif isinstance(entry, int) and not isinstance(entry, bool):
            arrays.append(PIMArray.square(entry))
        else:
            raise ConfigurationError(
                f"array entry must be a side, [rows, cols] pair or "
                f"array spec object, got {entry!r}")
    return arrays


# ----------------------------------------------------------------------
# Endpoint bodies (run inside the worker processes)
# ----------------------------------------------------------------------

def run_map(body: Any) -> Dict[str, Any]:
    """``POST /v1/map``: one MappingRequest envelope (+ deadline)."""
    def work() -> Dict[str, Any]:
        data = _require_dict(body)
        deadline = _deadline_from(data)
        envelope = data.get("request", data)
        request = _request_from(envelope)
        return dict(_engine().map(request, deadline=deadline).to_dict())
    return _guarded(work)


def run_map_batch(body: Any) -> Dict[str, Any]:
    """``POST /v1/map_batch``: a BatchRequest envelope."""
    def work() -> Dict[str, Any]:
        data = _require_dict(body)
        envelope = data.get("requests")
        if envelope is None:
            raise ConfigurationError("body needs 'requests' (a list of "
                                     "request envelopes)")
        try:
            batch = BatchRequest.from_dict({"requests": envelope})
        except ReproError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"bad batch envelope: {exc!r}") from None
        return dict(_engine().map_batch(batch).to_dict())
    return _guarded(work)


def run_network_sweep(body: Any) -> Dict[str, Any]:
    """``POST /v1/network_sweep``: whole-network cycles over arrays."""
    def work() -> Dict[str, Any]:
        data = _require_dict(body)
        layers = _layers_from(data)
        arrays = _arrays_from(data)
        scheme = str(data.get("scheme", "vw-sdk"))
        backend = data.get("backend")
        deadline = _deadline_from(data)
        cycles = _engine().sweep_cycles(
            layers, arrays, scheme,
            backend=str(backend) if backend is not None else None,
            deadline=deadline)
        return {"scheme": scheme,
                "arrays": [[a.rows, a.cols] for a in arrays],
                "cycles": [int(c) for c in cycles]}
    return _guarded(work)


def run_chip_pareto(body: Any) -> Dict[str, Any]:
    """``POST /v1/chip_pareto``: the cells/energy/latency frontier."""
    def work() -> Dict[str, Any]:
        data = _require_dict(body)
        layers = _layers_from(data)
        scheme = str(data.get("scheme", "vw-sdk"))
        sides = data.get("sides")
        kwargs: Dict[str, Any] = {}
        if sides is not None:
            if not isinstance(sides, list) or not sides:
                raise ConfigurationError(
                    "sides must be a non-empty JSON array of ints")
            kwargs["sides"] = sides  # array_candidates validates each
        for name in ("max_cells", "max_arrays", "target_bottleneck"):
            if name in data:
                kwargs[name] = require_positive_int(name, data[name])
        pools = data.get("pools", False)
        if not isinstance(pools, bool):
            raise ConfigurationError(
                f"pools must be a JSON boolean, got {pools!r}")
        points = _engine().chip_pareto(layers, scheme=scheme, pools=pools,
                                       **kwargs)
        return {"scheme": scheme,
                "points": [{"pool": p.pool, "num_arrays": p.num_arrays,
                            "cells": p.cells, "energy_nj": p.energy_nj,
                            "bottleneck_cycles": p.bottleneck_cycles,
                            "latency_us": p.latency_us}
                           for p in points]}
    return _guarded(work)


def run_stats(_body: Any = None) -> Dict[str, Any]:
    """One worker's engine statistics (the workers are symmetric)."""
    def work() -> Dict[str, Any]:
        stats = dict(_engine().stats.to_dict())
        stats["pid"] = os.getpid()
        return stats
    return _guarded(work)


def crash(_body: Any = None) -> Dict[str, Any]:
    """Kill this worker process outright (fault-injection hook).

    ``os._exit`` skips every cleanup path — exactly the hard crash a
    production fleet sees on OOM kills — so the parent reads EOF
    instead of a reply and must replace the worker.
    """
    os._exit(17)
    return {"ok": True, "result": None}  # pragma: no cover - unreachable


# ----------------------------------------------------------------------
# The worker process: frames over stdin/stdout
# ----------------------------------------------------------------------

#: Frame header: the length of the pickle that follows.
FRAME_HEADER = struct.Struct(">Q")

#: What a request frame may name.
_FUNCTIONS: Dict[str, Callable[[Any], Dict[str, Any]]] = {
    fn.__name__: fn for fn in (run_map, run_map_batch, run_network_sweep,
                               run_chip_pareto, run_stats, crash)}


def pack_frame(message: Any) -> bytes:
    """One frame: the header, then *message* pickled."""
    data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return FRAME_HEADER.pack(len(data)) + data


def _read_frame(stream: BinaryIO) -> Any:
    """The next frame's message; ``None`` once the server closes the
    pipe."""
    head = stream.read(FRAME_HEADER.size)
    if len(head) < FRAME_HEADER.size:
        return None
    (size,) = FRAME_HEADER.unpack(head)
    data = stream.read(size)
    return pickle.loads(data) if len(data) == size else None


def main() -> None:
    """Worker process entry: ``sys.argv[1:]`` is ``(store path or "",
    backend, cache size)``.

    Writes the ready frame, then answers one request frame at a time
    until stdin reaches EOF, which is how the server stops a worker.
    """
    # The parent drives shutdown; Ctrl-C reaches the whole process
    # group and must not kill a worker mid-reply.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    store_path, backend, cache_size = sys.argv[1:]
    # Frames own the original stdout; fd 1 now goes to stderr, so a
    # stray print cannot corrupt a frame.
    with os.fdopen(os.dup(1), "wb") as frames:
        os.dup2(2, 1)

        def write(message: Dict[str, Any]) -> None:
            frames.write(pack_frame(message))
            frames.flush()

        ready = _guarded(lambda: init_worker(store_path or None, backend,
                                             int(cache_size)))
        write(ready)
        if not ready["ok"]:
            return
        while True:
            message = _read_frame(sys.stdin.buffer)
            if message is None:
                return
            name, body = message
            write(_FUNCTIONS[name](body))
