"""The asyncio HTTP front door (`repro.server`).

Boots one real server (spawn-based worker pool + shared L2 store) per
module over an ephemeral loopback port and drives it with the stdlib
``http.client`` — no test doubles anywhere in the request path.  The
overarching acceptance property: answers over the wire are
*bit-identical* to the in-process engine, and every failure mode maps
onto the documented status table (including a hard worker crash, which
must yield a clean 503 and a transparently rebuilt pool).
"""

from __future__ import annotations

import asyncio
import http.client
import importlib.util
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import BatchRequest, MappingEngine, MappingRequest
from repro.core import ConfigurationError, ConvLayer, PIMArray
from repro.networks import resnet18, vgg16
from repro.runtime import SolutionStore
from repro.server import MappingServer, ServerThread
from repro.server.worker import (error_payload, run_chip_pareto, run_map,
                                 run_network_sweep, status_for)

LAYER = {"ifm": 14, "kernel": 3, "ic": 256, "oc": 256}
REQ = {"layer": LAYER, "array": {"rows": 512, "cols": 512},
       "scheme": "vw-sdk"}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One live server for the whole module (2 spawn workers)."""
    store = tmp_path_factory.mktemp("serve") / "l2.jsonl"
    with ServerThread(workers=2, store_path=str(store), backend="numpy",
                      fault_injection=True) as handle:
        yield handle


def call(server, method, path, body=None, raw=None):
    """One request over a fresh connection; returns (status, json)."""
    conn = http.client.HTTPConnection(*server.address, timeout=120)
    try:
        payload = raw if raw is not None else (
            json.dumps(body) if body is not None else None)
        conn.request(method, path, payload,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestEndpoints:
    def test_healthz(self, server):
        status, body = call(server, "GET", "/v1/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["workers"] == 2

    def test_map_bit_identical_to_in_process_engine(self, server):
        status, body = call(server, "POST", "/v1/map", {"request": REQ})
        assert status == 200
        oracle = MappingEngine(cache_size=0).map(
            MappingRequest.from_dict(REQ)).to_dict()
        # solve_ms is wall-clock; everything else must match bit-for-bit.
        assert body["solution"] == oracle["solution"]
        assert body["request"] == oracle["request"]
        assert body["cache"]["key"] == oracle["cache"]["key"]

    def test_map_batch_matches_engine(self, server):
        requests = [REQ, dict(REQ, scheme="im2col"), dict(REQ, scheme="sdk")]
        status, body = call(server, "POST", "/v1/map_batch",
                            {"requests": requests})
        assert status == 200
        engine = MappingEngine(cache_size=0)
        for wire, envelope in zip(body["responses"], requests):
            oracle = engine.map(MappingRequest.from_dict(envelope)).to_dict()
            assert wire["solution"] == oracle["solution"]

    def test_network_sweep_matches_engine(self, server):
        status, body = call(server, "POST", "/v1/network_sweep",
                            {"network": "resnet18", "arrays": [256, 512]})
        assert status == 200
        oracle = MappingEngine().sweep_cycles(
            resnet18(), [PIMArray.square(256), PIMArray.square(512)],
            "vw-sdk")
        assert body["cycles"] == [int(c) for c in oracle]
        assert body["arrays"] == [[256, 256], [512, 512]]

    def test_network_sweep_inline_layers(self, server):
        layer = {"ifm": 14, "kernel": 3, "ic": 64, "oc": 64}
        status, body = call(server, "POST", "/v1/network_sweep",
                            {"layers": [layer], "arrays": [[256, 512]]})
        assert status == 200
        oracle = MappingEngine().sweep_cycles(
            [ConvLayer.square(14, 3, 64, 64)],
            [PIMArray(rows=256, cols=512)], "vw-sdk")
        assert body["cycles"] == [int(c) for c in oracle]

    def test_chip_pareto_matches_engine(self, server):
        status, body = call(server, "POST", "/v1/chip_pareto",
                            {"network": "resnet18", "sides": [256, 512]})
        assert status == 200
        oracle = MappingEngine().chip_pareto(resnet18(), scheme="vw-sdk",
                                             sides=[256, 512])
        assert len(body["points"]) == len(oracle)
        for wire, point in zip(body["points"], oracle):
            assert wire["num_arrays"] == point.num_arrays
            assert wire["cells"] == point.cells
            assert wire["bottleneck_cycles"] == point.bottleneck_cycles

    def test_stats_counts_requests(self, server):
        status, body = call(server, "GET", "/v1/stats")
        assert status == 200
        assert body["server"]["requests"] >= 1
        assert body["worker_engine"]["pid"] > 0


class TestResponseMemo:
    def test_memo_hit_marks_cache_and_zeroes_solve_ms(self, server):
        envelope = {"request": dict(REQ, tag="memo-probe")}
        first_status, first = call(server, "POST", "/v1/map", envelope)
        status, body = call(server, "POST", "/v1/map", envelope)
        assert first_status == status == 200
        assert body["cache"]["hit"] is True
        assert body["solve_ms"] == 0.0
        assert body["solution"] == first["solution"]

    def test_deadline_requests_never_memoized(self, server):
        envelope = {"network": "resnet18", "arrays": [384],
                    "deadline_ms": 60000}
        for _ in range(2):
            status, body = call(server, "POST", "/v1/network_sweep",
                                envelope)
            assert status == 200
        stats = call(server, "GET", "/v1/stats")[1]
        # memo stats exist, but deadline-carrying bodies bypass them —
        # re-sending the envelope above must not have produced a hit
        # keyed on it (hits may exist from the memo-probe test).
        assert "memo" in stats["server"]


class TestErrorStatuses:
    def test_unknown_scheme_400_with_did_you_mean(self, server):
        status, body = call(server, "POST", "/v1/map",
                            {"request": dict(REQ, scheme="vw-sdkk")})
        assert status == 400
        assert body["error"]["type"] == "UnknownSchemeError"
        assert "did you mean" in body["error"]["message"]
        assert "vw-sdk" in body["error"]["message"]

    def test_malformed_json_400(self, server):
        # NaN and Infinity parse under plain json.loads, but echoing
        # them back would hand strict clients a body they cannot parse.
        tagged = json.dumps({"request": dict(REQ, tag="t")})
        for raw in ("{nope", tagged.replace('"t"', "NaN"),
                    tagged.replace('"t"', "Infinity")):
            status, body = call(server, "POST", "/v1/map", raw=raw)
            assert status == 400, raw
            assert body["error"]["type"] == "ProtocolError"
            assert "invalid JSON body" in body["error"]["message"]

    @pytest.mark.parametrize("length", ["abc", "12abc", "-5"])
    def test_malformed_content_length_400(self, server, length):
        # Raw socket: http.client would never send a bad Content-Length.
        head = (f"POST /v1/map HTTP/1.1\r\nHost: localhost\r\n"
                f"Content-Length: {length}\r\n\r\n")
        with socket.create_connection(server.address, timeout=120) as sock:
            sock.sendall(head.encode("latin-1"))
            reply = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break  # the server closes after a head error
                reply += chunk
        status_line, _, body = reply.partition(b"\r\n\r\n")
        assert status_line.startswith(b"HTTP/1.1 400 ")
        error = json.loads(body)["error"]
        assert error["type"] == "ProtocolError"
        assert "Content-Length" in error["message"]

    def test_missing_fields_400(self, server):
        status, body = call(server, "POST", "/v1/map", {"request": {}})
        assert status == 400
        assert body["error"]["type"] == "ConfigurationError"

    def test_unknown_route_404_lists_known_routes(self, server):
        status, body = call(server, "POST", "/v1/nope", {})
        assert status == 404
        assert "/v1/map" in body["error"]["message"]

    def test_wrong_method_405(self, server):
        status, body = call(server, "GET", "/v1/map")
        assert status == 405

    def test_infeasible_target_422(self, server):
        status, body = call(server, "POST", "/v1/chip_pareto",
                            {"network": "resnet18", "sides": [256],
                             "max_arrays": 1})
        assert status == 422
        assert body["error"]["type"] == "InfeasibleTargetError"

    def test_deadline_expiry_504_with_partials(self, server):
        status, body = call(server, "POST", "/v1/network_sweep",
                            {"network": "resnet18",
                             "arrays": list(range(64, 1025, 8)),
                             "deadline_ms": 0.001})
        assert status == 504
        error = body["error"]
        assert error["type"] == "DeadlineExceededError"
        assert error["budget_s"] == pytest.approx(1e-6)
        assert "partial" in error  # best-so-far rode along as JSON


class TestConcurrency:
    def test_parallel_clients_get_identical_answers(self, server):
        """16 concurrent clients, 4 distinct layers: every response
        must be bit-identical to the in-process engine's."""
        layers = [dict(REQ, layer=dict(REQ["layer"], ifm=ifm))
                  for ifm in (7, 14, 28, 56)]
        engine = MappingEngine(cache_size=0)
        oracles = [engine.map(MappingRequest.from_dict(env)).to_dict()
                   for env in layers]
        results = [None] * 16
        def worker(slot):
            envelope = layers[slot % len(layers)]
            results[slot] = (slot % len(layers),
                             call(server, "POST", "/v1/map",
                                  {"request": envelope}))
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for which, (status, body) in results:
            assert status == 200
            assert body["solution"] == oracles[which]["solution"]

    def test_keep_alive_pipelining(self, server):
        conn = http.client.HTTPConnection(*server.address, timeout=120)
        try:
            for _ in range(5):
                conn.request("POST", "/v1/map", json.dumps({"request": REQ}),
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(
                    response.read())["solution"]["cycles"] == 504
        finally:
            conn.close()


class TestWorkerCrash:
    """Satellite: a crashed worker yields a clean 5xx + recovered pool.

    Runs last in the module — the crash bumps ``worker_restarts`` and
    briefly costs pool rebuild time.
    """

    def test_crash_yields_503_then_recovers(self, server):
        status, body = call(server, "POST", "/v1/_crash_worker", {})
        assert status == 503
        assert body["error"]["type"] == "WorkerCrashed"
        # The very next request must ride the rebuilt pool.
        status, body = call(server, "POST", "/v1/map",
                            {"request": dict(REQ, tag="post-crash")})
        assert status == 200
        assert body["solution"]["cycles"] == 504
        stats = call(server, "GET", "/v1/stats")[1]
        assert stats["server"]["worker_restarts"] >= 1

    def test_crash_hook_gated_on_fault_injection(self):
        with ServerThread(workers=1, backend="numpy",
                          fault_injection=False) as handle:
            status, body = call(handle, "POST", "/v1/_crash_worker", {})
            assert status == 404


class TestSharedStore:
    def test_workers_share_the_l2_store(self, server, tmp_path_factory):
        """A solve answered by one worker warms the store all workers
        (and later fleets) mount."""
        envelope = {"request": dict(REQ, tag="l2-probe")}
        assert call(server, "POST", "/v1/map", envelope)[0] == 200
        with SolutionStore(server.server.store_path) as l2:
            assert len(l2) >= 1


class TestWorkerUnit:
    """The worker tier is plain functions — exercise the error mapping
    contract without a server in the way."""

    def test_status_table(self):
        from repro.api.registry import UnknownSchemeError
        from repro.core.types import ConfigurationError, MappingError
        from repro.dse.requirements import InfeasibleTargetError
        from repro.runtime import DeadlineExceededError, TransientError
        assert status_for(UnknownSchemeError("x")) == 400
        assert status_for(ConfigurationError("x")) == 400
        assert status_for(MappingError("x")) == 422
        assert status_for(InfeasibleTargetError("x")) == 422
        assert status_for(TransientError("x")) == 503
        assert status_for(DeadlineExceededError("x", where="w",
                                                budget_s=1.0)) == 504
        assert status_for(ValueError("x")) == 500

    def test_error_payload_jsonifies_partials(self):
        import numpy as np

        from repro.runtime import DeadlineExceededError
        exc = DeadlineExceededError(
            "over budget", where="engine.sweep", budget_s=0.5,
            partial={"cycles": np.array([1, 2, 3]), "count": np.int64(3)})
        payload = error_payload(exc)
        json.dumps(payload)  # wire-serializable end to end
        assert payload["status"] == 504
        assert payload["partial"]["cycles"] == [1, 2, 3]
        assert payload["partial"]["count"] == 3

    def test_run_map_in_process(self):
        result = run_map({"request": REQ})
        assert result["ok"] is True
        assert result["result"]["solution"]["cycles"] == 504

    def test_run_map_rejects_non_object(self):
        result = run_map([1, 2, 3])
        assert result["ok"] is False
        assert result["error"]["status"] == 400

    def test_run_network_sweep_rejects_bad_arrays(self):
        result = run_network_sweep({"network": "resnet18", "arrays": []})
        assert result["ok"] is False
        assert result["error"]["status"] == 400

    @pytest.mark.parametrize("run, extra", [
        (run_chip_pareto, {"sides": ["x"]}),
        (run_chip_pareto, {"sides": [True]}),
        (run_chip_pareto, {"max_cells": "big"}),
        (run_chip_pareto, {"max_arrays": None}),
        (run_chip_pareto, {"target_bottleneck": "x"}),
        (run_chip_pareto, {"pools": "false"}),
        (run_network_sweep, {"arrays": [["a", 2]]}),
        (run_network_sweep, {"arrays": [[512, 512.5]]}),
        (run_chip_pareto, {"max_cells": "262144"}),
        (run_network_sweep, {"layers": [dict(LAYER, ic=64.5)],
                             "arrays": [512]}),
        (run_network_sweep, {"layers": [dict(LAYER, ic=True)],
                             "arrays": [512]}),
        (run_network_sweep, {"layers": [dict(LAYER, ic=float("inf"))],
                             "arrays": [512]}),
        (run_network_sweep, {"layers": [dict(LAYER, stride=1.5)],
                             "arrays": [512]}),
        (run_network_sweep, {"arrays": [512], "deadline_ms": "5"}),
        (run_network_sweep, {"arrays": [512], "deadline_ms": True}),
        (run_network_sweep, {"arrays": [512],
                             "deadline_ms": float("nan")}),
        (run_network_sweep, {"arrays": [512],
                             "deadline_ms": float("inf")}),
    ])
    def test_malformed_numeric_or_boolean_fields_are_400(self, run, extra):
        result = run(dict({"network": "resnet18"}, **extra))
        assert result["ok"] is False
        assert result["error"]["status"] == 400
        assert result["error"]["type"] == "ConfigurationError"


# ----------------------------------------------------------------------
# `vwsdk serve` as a process: SIGTERM stops it like Ctrl-C
# ----------------------------------------------------------------------
def _live_children() -> dict:
    """``{ppid: [pid, ...]}`` over every live process (zombies excluded)."""
    children: dict = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # exited while we looked
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if state != "Z":
            children.setdefault(int(ppid), []).append(int(entry))
    return children


def _descendants(pid: int) -> list:
    children, found, stack = _live_children(), [], [pid]
    while stack:
        for child in children.get(stack.pop(), []):
            found.append(child)
            stack.append(child)
    return found


def _alive(pid: int) -> bool:
    return any(pid in pids for pids in _live_children().values())


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="finds the server's children through /proc")
def test_sigterm_stops_the_server_and_its_children(tmp_path):
    """``Popen.terminate()``, systemd and docker stop a server with
    SIGTERM; it must shut its worker pool down and exit 0, as on Ctrl-C."""
    with open(tmp_path / "stderr.txt", "w") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1"], stdout=subprocess.PIPE, stderr=stderr,
            text=True, env=dict(os.environ, PYTHONUNBUFFERED="1"))
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60)
        assert ready, "server printed no address within 60 s"
        line = proc.stdout.readline()
        host, port = re.search(r"http://([\d.]+):(\d+)", line).groups()
        conn = http.client.HTTPConnection(host, int(port), timeout=120)
        conn.request("POST", "/v1/map", json.dumps({"request": REQ}),
                     {"Content-Type": "application/json"})
        assert conn.getresponse().status == 200
        conn.close()
        children = _descendants(proc.pid)
        assert children, "the worker pool runs in child processes"

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
        deadline = time.monotonic() + 10
        while any(map(_alive, children)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in children if _alive(pid)]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


# ----------------------------------------------------------------------
# The worker processes: frames, crashes, cancellation, start-up
# ----------------------------------------------------------------------
#: A cold call that holds a worker for about a second.
SLOW_PARETO = {"network": "vgg16", "pools": True,
               "sides": list(range(64, 2049, 16)), "max_cells": 2048 * 2048}

#: Wall-clock fields of map and map_batch replies.
TIMING = re.compile(rb'"(solve_ms|elapsed_ms)":[-+.0-9eE]+')


def _wait_until(condition, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert condition(), "timed out"


def _idle_workers(handle):
    return handle.server._idle.qsize()


class TestWorkerProcesses:
    def test_frames_larger_than_a_pipe_buffer(self):
        """A 1,500-request batch: its body frame (~70 KB) and its reply
        frame (~360 KB) both exceed a 64 KiB pipe buffer."""
        requests = [dict(REQ, layer=dict(LAYER, ic=8 + i, oc=64))
                    for i in range(1500)]
        with ServerThread(workers=1, backend="numpy") as handle:
            conn = http.client.HTTPConnection(*handle.address, timeout=120)
            try:
                conn.request("POST", "/v1/map_batch",
                             json.dumps({"requests": requests}),
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                status, raw = response.status, response.read()
            finally:
                conn.close()
        assert status == 200
        oracle = MappingEngine(backend="numpy").map_batch(
            BatchRequest.from_dict({"requests": requests})).to_dict()
        want = json.dumps(oracle, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        assert TIMING.sub(b"", raw) == TIMING.sub(b"", want)

    def test_crash_spares_the_call_in_flight(self, server):
        """A crash of one worker fails only the request on it."""
        _wait_until(lambda: _idle_workers(server) == 2)
        restarts = call(server, "GET", "/v1/stats")[1]["server"][
            "worker_restarts"]
        replies = []
        slow = threading.Thread(target=lambda: replies.append(
            call(server, "POST", "/v1/chip_pareto", SLOW_PARETO)))
        slow.start()
        try:
            # The slow call holds one worker, so the crash lands on the
            # other.
            _wait_until(lambda: _idle_workers(server) == 1)
            status, body = call(server, "POST", "/v1/_crash_worker", {})
            assert status == 503
            assert body["error"]["type"] == "WorkerCrashed"
        finally:
            slow.join(timeout=120)
        assert not slow.is_alive()
        [(status, body)] = replies
        assert status == 200
        oracle = MappingEngine().chip_pareto(
            vgg16(), scheme="vw-sdk", pools=True,
            sides=SLOW_PARETO["sides"], max_cells=SLOW_PARETO["max_cells"])
        assert body["points"] == [
            {"pool": p.pool, "num_arrays": p.num_arrays, "cells": p.cells,
             "energy_nj": p.energy_nj,
             "bottleneck_cycles": p.bottleneck_cycles,
             "latency_us": p.latency_us} for p in oracle]
        stats = call(server, "GET", "/v1/stats")[1]
        assert stats["server"]["worker_restarts"] == restarts + 1

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="checks worker processes through /proc")
    def test_cancelled_call_retires_its_worker(self):
        """A call cancelled mid-reply kills and reaps its worker, whose
        replacement then serves the next request."""
        with ServerThread(workers=2, backend="numpy") as handle:
            server = handle.server
            before = {proc.pid for proc in server._procs}
            future = asyncio.run_coroutine_threadsafe(
                server._dispatch(run_chip_pareto, SLOW_PARETO),
                handle._loop)
            _wait_until(lambda: _idle_workers(handle) == 1)
            time.sleep(0.2)  # well inside the worker's solve
            future.cancel()
            _wait_until(lambda: _idle_workers(handle) == 2)
            after = {proc.pid for proc in server._procs}
            [retired] = before - after
            _wait_until(lambda: not Path(f"/proc/{retired}").exists())
            assert len(after) == 2
            assert {pid for pid in before | after if _alive(pid)} == after
            status, body = call(handle, "POST", "/v1/map",
                                {"request": REQ})
            assert status == 200
            assert body["solution"]["cycles"] == 504

    def test_replacement_that_cannot_start_is_a_503_not_a_hang(
            self, tmp_path):
        store = tmp_path / "l2.jsonl"
        with ServerThread(workers=1, backend="numpy",
                          store_path=str(store),
                          fault_injection=True) as handle:
            assert call(handle, "POST", "/v1/map", {"request": REQ})[0] \
                == 200
            store.rename(tmp_path / "moved.jsonl")
            store.mkdir()  # no worker can mount the store now
            assert call(handle, "POST", "/v1/_crash_worker", {})[0] == 503
            status, body = call(handle, "POST", "/v1/map",
                                {"request": dict(REQ, tag="no-worker")})
            assert status == 503
            assert body["error"]["type"] == "WorkerCrashed"
            assert "is a directory" in body["error"]["message"]
            store.rmdir()
            status, body = call(handle, "POST", "/v1/map",
                                {"request": dict(REQ, tag="recovered")})
            assert status == 200
            assert body["solution"]["cycles"] == 504

    @pytest.mark.parametrize("kwargs", [
        {"cache_size": -1},
        pytest.param({"backend": "numba"}, marks=pytest.mark.skipif(
            importlib.util.find_spec("numba") is not None,
            reason="numba is installed, so its backend starts")),
    ])
    def test_worker_that_cannot_start_fails_start(self, kwargs):
        handle = ServerThread(workers=1, **kwargs)
        with pytest.raises(ConfigurationError) as raised:
            handle.start()
        handle._thread.join(timeout=30)
        assert not handle._thread.is_alive()
        assert not handle.server._procs
        with pytest.raises(ConfigurationError) as direct:
            MappingEngine(**kwargs)
        assert str(raised.value) == str(direct.value)

    def test_serve_exits_with_the_worker_message(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-size", "-1"], capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == 1
        assert "serving on" not in proc.stdout
        assert proc.stderr.strip() == \
            "serve: cache_size must be >= 0, got -1"


class TestShutdownDrain:
    def test_drain_cancelling_the_close_handshake_ends_quietly(self):
        """The drain may cancel a handler parked in ``wait_closed``; the
        handler must still end normally, or the stream protocol's done
        callback (mirrored here) logs the cancellation as an error."""
        class StubWriter:
            closed = False

            def close(self):
                self.closed = True

            async def wait_closed(self):
                await asyncio.Event().wait()  # a handshake that never ends

        async def scenario(logged):
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: logged.append(context))
            reader = asyncio.StreamReader()
            reader.feed_eof()  # the client hung up: no request to serve
            writer = StubWriter()
            task = asyncio.ensure_future(
                MappingServer(workers=1)._handle_connection(reader, writer))
            task.add_done_callback(lambda done: done.exception())
            for _ in range(10):  # let it reach the close handshake
                await asyncio.sleep(0)
            assert writer.closed and not task.done()
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            await asyncio.sleep(0)  # run the done callback
            return task

        logged: list = []
        task = asyncio.run(scenario(logged))
        assert not task.cancelled()
        assert task.exception() is None
        assert logged == []
