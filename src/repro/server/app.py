"""The asyncio HTTP/1.1 front door (stdlib only, no frameworks).

:class:`MappingServer` accepts keep-alive JSON connections on an
``asyncio.start_server`` socket, parses minimal HTTP/1.1 by hand, and
dispatches every CPU-bound planning call to a tier of long-lived
worker processes (:mod:`repro.server.worker`) so the event loop never
blocks on lattice math.  Each worker is a fresh interpreter driven
over its own stdin/stdout pipes, one call at a time: a call costs two
pipe writes and no helper thread.  Workers share one
``flock``-guarded :class:`~repro.runtime.store.SolutionStore` as the
fleet-wide warm L2; the server process itself keeps a small LRU
*response memo* over canonical request bodies, so repeat traffic is
answered without a process hop at all.

Error contract (see ``docs/serving.md``): worker results carry their
own taxonomy-mapped status (400 unknown scheme / bad envelope, 422
infeasible, 504 deadline with best-so-far partials, 503 transient);
a worker process that dies mid-request (EOF on its stdout) is a 503
with ``type: "WorkerCrashed"``, and a fresh worker replaces it.
Endpoints:

========================  =====================================
``GET  /v1/healthz``      liveness + uptime + worker count
``GET  /v1/stats``        server counters + one worker's engine stats
``POST /v1/map``          one MappingRequest envelope
``POST /v1/map_batch``    a BatchRequest envelope
``POST /v1/network_sweep``  whole-network cycles over many arrays
``POST /v1/chip_pareto``  cells/energy/latency frontier
``POST /v1/_crash_worker``  kill one worker (``fault_injection=True``)
========================  =====================================
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import pickle
import signal
import sys
import threading
import time
from asyncio.subprocess import PIPE, Process
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Set, Tuple

from ..core.cache import LRUMemo
from ..core.types import ConfigurationError
from . import worker

__all__ = ["MappingServer", "ServerThread", "serve"]

#: Connection-level read limits (headers / body) — requests beyond
#: these are rejected, not buffered, so one bad client cannot balloon
#: the event loop's memory.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

#: How long :meth:`MappingServer.stop` lets workers finish their
#: in-flight calls before it kills them.
STOP_TIMEOUT_S = 5.0

#: The worker command.  ``-m repro.server.worker`` would run the module
#: a second time as ``__main__`` (``repro.server`` imports it), and
#: runpy warns about that.
_WORKER_MAIN = "from repro.server.worker import main; main()"

#: The directory this process imported ``repro`` from; it goes first
#: on every worker's ``PYTHONPATH``, so workers run the same code.
_IMPORT_ROOT = str(Path(os.path.abspath(__file__)).parents[2])

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout",
            413: "Payload Too Large", 422: "Unprocessable Entity",
            500: "Internal Server Error", 503: "Service Unavailable",
            504: "Gateway Timeout"}


def _reject_constant(token: str) -> Any:
    """``json.loads`` hook: ``NaN`` and ``Infinity`` are not JSON, and a
    body carrying them would be echoed back as invalid JSON."""
    raise ValueError(f"{token} is not a JSON value")


def _memo_key(path: str, body: Any) -> Optional[str]:
    """The response-memo key of one request: ``path`` plus the SHA-256
    of the canonical JSON body.

    ``None`` means "never memoize": deadline-carrying bodies (their
    *outcome* depends on wall-clock, even though successful answers
    don't) and bodies with no canonical JSON form.
    """
    if isinstance(body, dict) and "deadline_ms" in body:
        return None
    try:
        canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        return None
    digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    return f"{path}:{digest}"


async def _read_frame(reader: asyncio.StreamReader
                      ) -> Optional[Dict[str, Any]]:
    """The next frame a worker wrote; ``None`` at EOF (it exited)."""
    try:
        head = await reader.readexactly(worker.FRAME_HEADER.size)
        (size,) = worker.FRAME_HEADER.unpack(head)
        data = await reader.readexactly(size)
    except asyncio.IncompleteReadError:
        return None
    message: Dict[str, Any] = pickle.loads(data)
    return message


async def _call(proc: Process, name: str, body: Any
                ) -> Optional[Dict[str, Any]]:
    """Run worker function *name* on *body* in *proc*; ``None`` if the
    worker died before it replied."""
    assert proc.stdin is not None and proc.stdout is not None
    proc.stdin.write(worker.pack_frame((name, body)))
    with contextlib.suppress(ConnectionError):  # dead: EOF tells below
        await proc.stdin.drain()
    return await _read_frame(proc.stdout)


class MappingServer:
    """The service: one asyncio acceptor + a tier of worker processes.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    workers:
        Number of worker processes for the CPU-bound planning calls;
        each runs one call at a time.
    store_path:
        Optional path to the shared :class:`SolutionStore` every
        worker mounts as its L2 (the fleet-wide warm cache).
    backend:
        Compute backend name each worker engine resolves
        (``"auto"``/``"numpy"``/``"numba"``).
    cache_size:
        Per-worker engine LRU size.
    memo_size:
        Entries in the server-side response memo (``0`` disables it).
    fault_injection:
        Enables ``POST /v1/_crash_worker`` — never turn this on in
        production; it exists for the crash-recovery tests and CI.
    """

    #: POST endpoints dispatched to the worker tier.
    ROUTES: Dict[str, Callable[[Any], Dict[str, Any]]] = {
        "/v1/map": worker.run_map,
        "/v1/map_batch": worker.run_map_batch,
        "/v1/network_sweep": worker.run_network_sweep,
        "/v1/chip_pareto": worker.run_chip_pareto,
    }

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 workers: int = 2, store_path: Optional[str] = None,
                 backend: str = "auto", cache_size: int = 4096,
                 memo_size: int = 1024,
                 fault_injection: bool = False) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.host = host
        self.port = port
        self.workers = workers
        self.store_path = store_path
        self.backend = backend
        self.cache_size = cache_size
        self.fault_injection = bool(fault_injection)
        #: Serialized 200-responses by :func:`_memo_key`; errors are
        #: recomputed, never replayed.
        self.memo: LRUMemo[bytes] = LRUMemo(memo_size)
        self._server: Optional[asyncio.AbstractServer] = None
        #: Idle workers; ``None`` stands for one whose replacement
        #: failed to start.  Built in :meth:`start`, on the serving loop.
        self._idle: "asyncio.Queue[Optional[Process]]"
        #: Every worker process not yet reaped.
        self._procs: Set[Process] = set()
        self._replacing: Set["asyncio.Task[None]"] = set()
        self._closing = False
        self._started = 0.0
        # counters (mutated on the event loop thread only)
        self.requests = 0
        self.errors = 0
        self.worker_restarts = 0

    # -- worker tier ---------------------------------------------------

    async def _spawn(self) -> Process:
        """Start one worker and wait for its ready frame; raises
        ``ConfigurationError`` with the worker's message if it cannot
        start.

        A fresh interpreter, not a fork: an asyncio parent with running
        threads must not fork, and each worker imports repro and builds
        its engine itself, exactly like a separate fleet machine would.
        """
        if self._closing:
            raise ConfigurationError("the server is stopping")
        proc = await asyncio.create_subprocess_exec(
            sys.executable, "-c", _WORKER_MAIN, self.store_path or "",
            self.backend, str(self.cache_size), stdin=PIPE, stdout=PIPE,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(
                None, (_IMPORT_ROOT, os.environ.get("PYTHONPATH"))))),
            # No read back-pressure: replies are read whole anyway, and
            # a killed worker's unread reply must not hold back the EOF
            # that lets wait() return.
            limit=sys.maxsize)
        self._procs.add(proc)
        assert proc.stdout is not None
        ready: Optional[Dict[str, Any]] = None
        try:
            ready = await _read_frame(proc.stdout)
        finally:
            if ready is None or not ready["ok"]:
                with contextlib.suppress(ProcessLookupError):
                    proc.kill()
                await proc.wait()
                self._procs.discard(proc)
        if ready is None:
            raise ConfigurationError(
                "a worker exited before it was ready; see its stderr")
        if not ready["ok"]:
            raise ConfigurationError(ready["error"]["message"])
        return proc

    def _retire(self, proc: Process) -> None:
        """Kill *proc*, which may owe an unread reply, and replace it
        in the background."""
        with contextlib.suppress(ProcessLookupError):
            proc.kill()
        if self._closing:
            return  # stop() reaps it
        self.worker_restarts += 1
        task = asyncio.ensure_future(self._replace(proc))
        self._replacing.add(task)
        task.add_done_callback(self._replacing.discard)

    async def _replace(self, proc: Process) -> None:
        """Reap *proc*, then queue a fresh worker, or ``None`` when
        none could start."""
        await proc.wait()
        self._procs.discard(proc)
        fresh: Optional[Process] = None
        with contextlib.suppress(ConfigurationError, OSError):
            fresh = await self._spawn()  # else the next call retries
        self._idle.put_nowait(fresh)

    async def _dispatch(self, fn: Callable[[Any], Dict[str, Any]],
                        body: Any) -> Dict[str, Any]:
        """Run one worker function on an idle worker; crash -> 503."""
        proc = await self._idle.get()
        if proc is None:  # its replacement failed to start: try again
            try:
                proc = await self._spawn()
            except (ConfigurationError, OSError) as exc:
                self._idle.put_nowait(None)
                return {"ok": False, "error": {
                    "type": "WorkerCrashed", "status": 503,
                    "message": f"no worker could start: {exc}"}}
            except BaseException:
                self._idle.put_nowait(None)
                raise
        try:
            outcome = await _call(proc, fn.__name__, body)
        except BaseException:
            # Cancelled or failed mid-call: the worker may still owe
            # this call's reply, so it never serves another.
            self._retire(proc)
            raise
        if outcome is None:
            self._retire(proc)
            return {"ok": False, "error": {
                "type": "WorkerCrashed", "status": 503,
                "message": "a worker process died mid-request; the "
                           "worker pool has been rebuilt — retry the "
                           "request"}}
        self._idle.put_nowait(proc)
        return outcome

    # -- HTTP plumbing -------------------------------------------------

    async def start(self) -> None:
        """Start every worker, then bind the socket.

        Raises ``ConfigurationError`` with a worker's own message when
        a worker cannot start, after stopping the ones that did.
        """
        self._idle = asyncio.Queue()
        try:
            started = await asyncio.gather(
                *(self._spawn() for _ in range(self.workers)),
                return_exceptions=True)
            for proc in started:
                if isinstance(proc, BaseException):
                    raise proc
                self._idle.put_nowait(proc)
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port)
        except BaseException:
            await self.stop()
            raise
        sockets = self._server.sockets or ()
        for sock in sockets:
            self.port = sock.getsockname()[1]
            break
        self._started = time.monotonic()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the listener, then stop every worker; none outlives
        this call.

        Each worker exits after its in-flight call: orphaned workers
        would race external teardown (e.g. a store directory being
        deleted out from under them).  Those still busy after
        :data:`STOP_TIMEOUT_S` are killed.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.gather(*self._replacing, return_exceptions=True)
        procs = list(self._procs)
        for proc in procs:
            assert proc.stdin is not None
            proc.stdin.close()  # EOF: the worker's loop ends
        waits = asyncio.gather(*(proc.wait() for proc in procs))
        try:
            await asyncio.wait_for(waits, STOP_TIMEOUT_S)
        except asyncio.TimeoutError:
            for proc in procs:
                with contextlib.suppress(ProcessLookupError):
                    proc.kill()
            await asyncio.gather(*(proc.wait() for proc in procs))
        self._procs.clear()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """One keep-alive connection: serve requests until close/EOF.

        Only the shutdown drain cancels a connection's task, and it may
        find the handler anywhere, the close handshake included; the
        task then ends normally, because the stream protocol's done
        callback would log a cancelled task as an error.
        """
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # shutdown drain: nothing is left to answer

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass  # client went away mid-request: nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _handle_one(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> bool:
        """Parse and answer one request; returns keep-alive?"""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                await self._send(writer, 400, {"error": {
                    "type": "ProtocolError", "status": 400,
                    "message": "truncated HTTP request head"}})
            return False
        if len(head) > MAX_HEADER_BYTES:
            await self._send(writer, 400, {"error": {
                "type": "ProtocolError", "status": 400,
                "message": "request head too large"}})
            return False
        try:
            method, path, headers, length = self._parse_head(head)
        except ValueError as exc:
            await self._send(writer, 400, {"error": {
                "type": "ProtocolError", "status": 400,
                "message": str(exc)}})
            return False
        if length > MAX_BODY_BYTES:
            await self._send(writer, 413, {"error": {
                "type": "ProtocolError", "status": 413,
                "message": f"body exceeds {MAX_BODY_BYTES} bytes"}})
            return False
        raw_body = await reader.readexactly(length) if length else b""
        keep_alive = headers.get("connection", "keep-alive") != "close"
        self.requests += 1
        status, payload, preserialized = await self._route(
            method, path, raw_body)
        if status >= 400:
            self.errors += 1
        await self._send(writer, status, payload, preserialized,
                         keep_alive=keep_alive)
        return keep_alive

    @staticmethod
    def _parse_head(head: bytes
                    ) -> Tuple[str, str, Dict[str, str], int]:
        """``(method, path, headers, content length)``; raises
        ``ValueError`` on anything malformed, ``Content-Length`` included
        (it must be plain decimal digits)."""
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 total
            raise ValueError("undecodable request head") from None
        lines = text.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ValueError(f"malformed request line: {lines[0]!r}")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise ValueError(f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip().lower()
        length = headers.get("content-length", "0") or "0"
        if not (length.isascii() and length.isdigit()):
            raise ValueError(f"malformed Content-Length: {length!r}")
        return method, path, headers, int(length)

    async def _route(self, method: str, path: str, raw_body: bytes
                     ) -> Tuple[int, Optional[Dict[str, Any]],
                                Optional[bytes]]:
        """Resolve one request to ``(status, payload, preserialized)``."""
        if path == "/v1/healthz":
            if method != "GET":
                return 405, self._method_error("GET"), None
            return 200, self._healthz(), None
        if path == "/v1/stats":
            if method != "GET":
                return 405, self._method_error("GET"), None
            return await self._stats()
        if path == "/v1/_crash_worker":
            if not self.fault_injection:
                return 404, self._not_found(path), None
            if method != "POST":
                return 405, self._method_error("POST"), None
            outcome = await self._dispatch(worker.crash, None)
            # The only way out is a worker that died (ok=False with
            # WorkerCrashed) — which is exactly the point.
            error = outcome.get("error", {"type": "WorkerCrashed",
                                          "status": 503,
                                          "message": "worker killed"})
            return int(error.get("status", 503)), {"error": error}, None
        fn = self.ROUTES.get(path)
        if fn is None:
            return 404, self._not_found(path), None
        if method != "POST":
            return 405, self._method_error("POST"), None
        try:
            body = (json.loads(raw_body.decode("utf-8"),
                               parse_constant=_reject_constant)
                    if raw_body else {})
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            return 400, {"error": {"type": "ProtocolError", "status": 400,
                                   "message": f"invalid JSON body: {exc}"}
                         }, None
        # A disabled memo (``memo_size=0``) is never consulted, so its
        # counters stay at zero.
        memo_key = _memo_key(path, body) if self.memo.maxsize > 0 else None
        hit = self.memo.get(memo_key) if memo_key is not None else None
        if hit is not None:
            return 200, None, hit
        outcome = await self._dispatch(fn, body)
        if not outcome.get("ok"):
            error = outcome.get("error") or {
                "type": "InternalError", "status": 500,
                "message": "worker returned no error payload"}
            return int(error.get("status", 500)), {"error": error}, None
        result = outcome["result"]
        payload_bytes = _serialize(result)
        if memo_key is not None:
            self.memo.put(memo_key, _memoized_form(path, result,
                                                   payload_bytes))
        return 200, None, payload_bytes

    def _healthz(self) -> Dict[str, Any]:
        return {"ok": True,
                "uptime_s": round(time.monotonic() - self._started, 3),
                "workers": self.workers,
                "worker_restarts": self.worker_restarts,
                "store": self.store_path,
                "backend": self.backend}

    async def _stats(self) -> Tuple[int, Optional[Dict[str, Any]],
                                    Optional[bytes]]:
        outcome = await self._dispatch(worker.run_stats, None)
        engine_stats = outcome.get("result") if outcome.get("ok") else None
        payload = {
            "server": {"requests": self.requests, "errors": self.errors,
                       "worker_restarts": self.worker_restarts,
                       "memo": dict(self.memo.snapshot(),
                                    maxsize=self.memo.maxsize),
                       "uptime_s": round(
                           time.monotonic() - self._started, 3)},
            "worker_engine": engine_stats,
        }
        return 200, payload, None

    @staticmethod
    def _not_found(path: str) -> Dict[str, Any]:
        known = ", ".join(sorted(list(MappingServer.ROUTES)
                                 + ["/v1/healthz", "/v1/stats"]))
        return {"error": {"type": "NotFound", "status": 404,
                          "message": f"no route {path}; known: {known}"}}

    @staticmethod
    def _method_error(allowed: str) -> Dict[str, Any]:
        return {"error": {"type": "MethodNotAllowed", "status": 405,
                          "message": f"use {allowed}"}}

    async def _send(self, writer: asyncio.StreamWriter, status: int,
                    payload: Optional[Dict[str, Any]],
                    preserialized: Optional[bytes] = None, *,
                    keep_alive: bool = True) -> None:
        body = preserialized if preserialized is not None \
            else _serialize(payload if payload is not None else {})
        reason = _REASONS.get(status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {connection}\r\n\r\n")
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


def _serialize(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _memoized_form(path: str, result: Any, payload_bytes: bytes) -> bytes:
    """What a future memo hit should serve.

    ``/v1/map`` responses carry cache provenance; a memo hit *is* a
    cache hit, so the stored copy reports ``cache.hit=true`` /
    ``solve_ms=0.0`` — mirroring what the engine itself reports when
    its memo answers.  Every other endpoint's body is provenance-free
    and replayed byte-identically.
    """
    if path == "/v1/map" and isinstance(result, dict) \
            and isinstance(result.get("cache"), dict):
        patched = dict(result)
        patched["cache"] = dict(result["cache"], hit=True)
        patched["solve_ms"] = 0.0
        return _serialize(patched)
    return payload_bytes


class ServerThread:
    """Run a :class:`MappingServer` on a background event loop.

    The harness tests, ``benchmarks/bench_serve.py`` and the CI smoke
    all use this to get a real listening socket inside one process::

        with ServerThread(workers=1) as handle:
            conn = http.client.HTTPConnection(*handle.address)
    """

    def __init__(self, **kwargs: Any) -> None:
        self.server = MappingServer(**kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="mapping-server")
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # noqa: B036 - report then bail
            self._startup_error = exc
            self._loop.close()
            self._ready.set()
            return
        self._ready.set()
        self._loop.run_forever()
        # Drain: cancel still-open keep-alive connections before the
        # loop closes, so their handlers unwind inside a live loop.
        pending = asyncio.all_tasks(self._loop)
        for task in pending:
            task.cancel()
        if pending:
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True))
        self._loop.run_until_complete(self.server.stop())
        self._loop.close()

    def start(self, timeout: float = 60.0) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("server failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` of the listening socket."""
        return self.server.host, self.server.port

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def serve(host: str = "127.0.0.1", port: int = 8080, *,
          workers: int = 2, store_path: Optional[str] = None,
          backend: str = "auto", cache_size: int = 4096,
          memo_size: int = 1024, fault_injection: bool = False) -> None:
    """Blocking entry point for ``vwsdk serve``.

    Returns once Ctrl-C or SIGTERM has stopped the listener and the
    workers, so the process exits 0 with no child left behind.  A
    worker that cannot start raises ``ConfigurationError`` before
    anything is printed.
    """
    server = MappingServer(host, port, workers=workers,
                           store_path=store_path, backend=backend,
                           cache_size=cache_size, memo_size=memo_size,
                           fault_injection=fault_injection)

    async def _main() -> None:
        await server.start()
        # SIGTERM (``Popen.terminate()``, systemd, docker) takes the same
        # graceful path as Ctrl-C: cancel serving, then stop the workers.
        main = asyncio.current_task()
        if main is not None:
            with contextlib.suppress(NotImplementedError):  # not on Windows
                asyncio.get_running_loop().add_signal_handler(
                    signal.SIGTERM, main.cancel)
        print(f"serving on http://{server.host}:{server.port} "
              f"({server.workers} workers, backend={server.backend}, "
              f"store={server.store_path or 'none'})")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - shutdown path
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
