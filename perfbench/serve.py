"""The ``serve`` workload: ``vwsdk serve`` in its own process, driven by
this process over one keep-alive connection (a closed loop: the next
request goes out when the previous reply is in).

A shuffled block of 32 ops fixes the mix in every run:

* 16 ``hit``: a ``/v1/map`` body repeated from the last 256 maps sent,
  so it is still in the server's 1024-entry response memo and never
  reaches a worker.  Hits repeat maps only: a memo hit's cost grows with its
  reply, and one reply size keeps the hit median inside one cluster;
* 16 ``miss``: a body the server has not seen — 10 distinct-geometry
  ``/v1/map``, 4 ``/v1/map_batch`` of 8 requests, 1 ``/v1/network_sweep``
  and 1 ``/v1/chip_pareto``.  Maps and the similar-cost sweep are 11 of
  the 16 misses, so the miss median lands inside their cluster; the
  batches hold the run's p90 whichever side of them the chip call falls.

One worker: one connection never keeps two busy.  Client, server and
worker share one CPU (see ``run.py``), which a closed loop keeps busy
with one of them at a time.  Every reply is checked after the run
against an in-process replay of ``repro.server.worker`` on a fresh
engine and store; the traced run times that replay layer by layer.
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import shutil
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from common import MARKER, OUT, ROOT, Mismatch, TABLE1_SPEEDUP_VS_SDK, \
    TABLE1_VWSDK_CYCLES, alive, deck, descendants, expect, stray_servers, \
    vm_hwm_mb
from dse import instrument_planning, planning_counts
from spans import Patches, Tracer

IFMS = (7, 14, 28, 56)
SIDES = (128, 256, 512)
SWEEP_SIDES = (64, 96, 128, 192, 256, 384, 512, 768)
BLOCK = ["hit"] * 16 + ["map"] * 10 + ["batch"] * 4 + ["sweep", "chip"]
PATHS = {"map": "/v1/map", "batch": "/v1/map_batch",
         "sweep": "/v1/network_sweep", "chip": "/v1/chip_pareto"}
RECENT = 256

Op = Dict[str, Any]


@dataclass
class Reply:
    status: int
    raw: bytes
    rt_ns: int
    codec_ns: int


class Client:
    """Raw-socket HTTP/1.1 keep-alive JSON client."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def request(self, method: str, path: str,
                body: Optional[Any] = None) -> Reply:
        start = time.perf_counter_ns()
        payload = json.dumps(body).encode() if body is not None else b""
        head = (f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n").encode("latin-1")
        sent = time.perf_counter_ns()
        self.sock.sendall(head + payload)
        status, raw = self._read()
        got = time.perf_counter_ns()
        json.loads(raw)
        done = time.perf_counter_ns()
        return Reply(status, raw, got - sent, sent - start + done - got)

    def _read(self) -> Tuple[int, bytes]:
        while b"\r\n\r\n" not in self._buf:
            self._buf += self._recv()
        head, _, rest = self._buf.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                length = int(line.partition(b":")[2])
        while len(rest) < length:
            rest += self._recv()
        self._buf = rest[length:]
        return int(head.split(b" ", 2)[1]), rest[:length]

    def _recv(self) -> bytes:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk

    def close(self) -> None:
        self.sock.close()


def canonical(body: Any) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


#: Wall-clock fields of ``/v1/map`` and ``/v1/map_batch`` replies.
TIMING = re.compile(rb'"(solve_ms|elapsed_ms)":[-+.0-9eE]+')


def masked(raw: bytes) -> bytes:
    """Canonical reply bytes with their wall-clock fields blanked."""
    return TIMING.sub(rb'"\1":null', raw)


class Serve:
    trace_ops = 1024
    #: Replies are checked after the run by an in-order worker replay.
    inline_checks = False

    def __init__(self) -> None:
        self.proc: Optional[subprocess.Popen] = None
        self.client: Optional[Client] = None
        #: Reply to the first send of each body, by canonical body.
        self.sent: Dict[str, bytes] = {}

    # -- server lifetime ----------------------------------------------

    def setup(self) -> Dict[str, float]:
        strays = stray_servers()
        if strays:
            raise SystemExit(f"refusing to start: stray repro server or "
                             f"pool processes still running: {strays}")
        self.tmp = OUT / f"serve-{os.getpid()}"
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PYTHONUNBUFFERED="1")
        env[MARKER] = "1"
        with open(self.tmp / "server.log", "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--workers", "1",
                 "--backend", "numpy", "--port", "0",
                 "--store", str(self.tmp / "store.jsonl")],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log)
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline().decode() if ready else ""
        expect(line.startswith("serving on http://"),
               f"server did not start: {line!r}")
        port = int(line.split()[2].rsplit(":", 1)[1])
        self.client = Client(port)
        self.warm_log: List[Tuple[str, Any]] = []
        for body in self._warm_bodies():
            self._send_warm(body[0], body[1])
        error = self._table1()
        return {"model.table1_error_cycles": float(error)}

    def _warm_bodies(self) -> List[Tuple[str, Any]]:
        bodies: List[Tuple[str, Any]] = [
            ("/v1/map", {"request": {
                "layer": {"ifm": ifm, "kernel": 3, "ic": 600, "oc": 600},
                "array": {"rows": rows, "cols": cols}, "scheme": "vw-sdk"}})
            for ifm in IFMS for rows in SIDES for cols in SIDES]
        layers = [{"ifm": ifm, "kernel": 3, "ic": 600, "oc": 600}
                  for ifm in IFMS]
        bodies.append(("/v1/map_batch", {"requests": [
            {"layer": layer, "array": {"rows": 600, "cols": 600},
             "scheme": "vw-sdk"} for layer in layers]}))
        bodies.append(("/v1/network_sweep",
                       {"layers": layers, "arrays": list(SWEEP_SIDES)}))
        bodies.append(("/v1/chip_pareto",
                       {"layers": layers[:3], "sides": list(SIDES),
                        "pools": True}))
        return bodies

    def _send_warm(self, path: str, body: Any) -> Reply:
        assert self.client is not None
        reply = self.client.request("POST", path, body)
        expect(reply.status == 200, f"warm-up {path} -> {reply.status}")
        self.warm_log.append((path, body))
        self.sent[canonical(body)] = reply.raw
        return reply

    def _table1(self) -> int:
        """Paper Table I over the wire: ResNet-18 on 512x512."""
        cycles = {}
        for scheme in ("vw-sdk", "sdk"):
            reply = self._send_warm("/v1/network_sweep", {
                "network": "resnet18", "arrays": [512], "scheme": scheme})
            cycles[scheme] = json.loads(reply.raw)["cycles"][0]
        vw, sdk = cycles["vw-sdk"], cycles["sdk"]
        expect(round(sdk / vw, 2) == TABLE1_SPEEDUP_VS_SDK,
               f"SDK/VW-SDK speedup {sdk / vw:.3f} != Table I")
        expect(vw == TABLE1_VWSDK_CYCLES, f"VW-SDK cycles {vw} != Table I")
        return abs(vw - TABLE1_VWSDK_CYCLES)

    def teardown(self) -> None:
        """Stop the server with SIGINT and fail if a child outlives it
        (SIGTERM would leave the pool worker and resource tracker
        behind)."""
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        children = descendants(proc.pid)
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise Mismatch("server ignored SIGINT for 30 s")
        finally:
            if proc.stdout is not None:
                proc.stdout.close()
        deadline = time.monotonic() + 10
        while any(alive(pid) for pid in children) \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in children if alive(pid)]
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        shutil.rmtree(self.tmp, ignore_errors=True)
        expect(not orphans, f"server children outlived it: {orphans}")

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        pids = [self.proc.pid] + descendants(self.proc.pid)
        return vm_hwm_mb() + sum(vm_hwm_mb(pid) for pid in pids)

    # -- op stream ----------------------------------------------------

    def ops(self, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        warm = self._warm_bodies()
        seen = {canonical(body) for _, body in warm}
        recent = [(path, body) for path, body in warm if path == "/v1/map"]

        def fresh(make: Any) -> Any:
            while True:
                body = make()
                key = canonical(body)
                if key not in seen:
                    seen.add(key)
                    return body

        def layer() -> Dict[str, int]:
            return {"ifm": rng.choice(IFMS), "kernel": 3,
                    "ic": rng.randint(8, 512), "oc": rng.randint(8, 512)}

        def request() -> Dict[str, Any]:
            return {"layer": layer(), "scheme": "vw-sdk",
                    "array": {"rows": rng.choice(SIDES),
                              "cols": rng.choice(SIDES)}}

        makers = {
            "map": lambda: {"request": request()},
            "batch": lambda: {"requests": [request() for _ in range(8)]},
            "sweep": lambda: {"layers": [layer() for _ in range(4)],
                              "arrays": rng.sample(SWEEP_SIDES, 6)},
            "chip": lambda: {"layers": [layer() for _ in range(2)],
                             "sides": sorted(rng.sample(SIDES, 2)),
                             "pools": rng.random() < 0.5},
        }
        for kind in deck(rng, BLOCK):
            if kind == "hit":
                path, body = rng.choice(recent[-RECENT:])
                yield {"kind": "hit", "path": path, "body": body}
                continue
            body = fresh(makers[kind])
            if kind == "map":
                recent.append((PATHS[kind], body))
            yield {"kind": "miss", "path": PATHS[kind], "body": body}

    @staticmethod
    def fast(op: Op) -> bool:
        return op["kind"] == "hit"

    def execute(self, op: Op) -> Reply:
        assert self.client is not None
        return self.client.request("POST", op["path"], op["body"])

    @staticmethod
    def canon(op: Op, reply: Reply) -> Tuple[Any, ...]:
        return reply.status, masked(reply.raw)

    # -- answer checks ------------------------------------------------

    def check_all(self, ops: List[Op], replies: List[Any],
                  tracer: Optional[Tracer] = None) -> List[str]:
        """Replay every miss in order through ``repro.server.worker`` on a
        fresh engine and store; every reply must match bit for bit once
        wall-clock fields are blanked.  Hits must equal the memoized
        reply of their first send.  With *tracer*, the replay of the
        first ``trace_ops`` ops is timed by layer."""
        from repro.server import worker
        store = OUT / f"replay-{os.getpid()}"
        shutil.rmtree(store, ignore_errors=True)
        worker.init_worker(str(store / "store.jsonl"), "numpy", 4096)
        runs = {"/v1/map": worker.run_map,
                "/v1/map_batch": worker.run_map_batch,
                "/v1/network_sweep": worker.run_network_sweep,
                "/v1/chip_pareto": worker.run_chip_pareto}
        patches = Patches(tracer) if tracer is not None else None
        try:
            for path, body in self.warm_log:
                expect(bool(runs[path](body)["ok"]), f"replay of {path}")
            if patches is not None:
                self.instrument_replay(patches)
            first = dict(self.sent)
            failures: List[str] = []
            for index, (op, reply) in enumerate(zip(ops, replies)):
                if patches is not None and index == self.trace_ops:
                    patches.__exit__()
                run = runs[op["path"]]
                try:
                    outcome = None
                    if op["kind"] == "miss" and tracer is not None \
                            and index < self.trace_ops:
                        tracer.op = index
                        outcome = tracer.call("worker.run", run, op["body"])
                    elif op["kind"] == "miss":
                        outcome = run(op["body"])
                    self._check_one(op, reply, outcome, first)
                except Mismatch as exc:
                    failures.append(f"op {index}: {exc}")
            return failures
        finally:
            if patches is not None:
                patches.__exit__()
            shutil.rmtree(store, ignore_errors=True)

    @staticmethod
    def _check_one(op: Op, reply: Any, outcome: Optional[Dict[str, Any]],
                   first: Dict[str, bytes]) -> None:
        expect(isinstance(reply, Reply), f"request failed: {reply!r}")
        expect(reply.status == 200, f"{op['path']} -> {reply.status}")
        path, key = op["path"], canonical(op["body"])
        if outcome is not None:
            expect(bool(outcome["ok"]), f"replay error {outcome!r}")
            want = canonical(outcome["result"]).encode()
            expect(masked(reply.raw) == masked(want),
                   f"{path} reply differs from the worker replay")
            first[key] = reply.raw
            return
        original = first[key]
        if path != "/v1/map":
            expect(reply.raw == original, f"{path} memo hit differs")
            return
        want_hit = json.loads(original)
        want_hit["cache"]["hit"] = True
        want_hit["solve_ms"] = 0.0
        expect(json.loads(reply.raw) == want_hit, "/v1/map memo hit differs")

    # -- traced run ---------------------------------------------------

    def instrument(self, patches: Patches) -> None:
        """The client side is timed per op already; the worker side is
        timed on the in-process replay (see :meth:`check_all`)."""

    def instrument_replay(self, patches: Patches) -> None:
        from repro.api.engine import MappingEngine
        from repro.runtime.store import SolutionStore
        instrument_planning(patches)
        patches.wrap(MappingEngine, "map_batch", "api.map_batch")
        patches.wrap(SolutionStore, "get", "runtime.store")
        patches.wrap(SolutionStore, "put", "runtime.store")

    def _stats(self) -> Dict[str, Any]:
        assert self.client is not None
        reply = self.client.request("GET", "/v1/stats")
        expect(reply.status == 200, f"/v1/stats -> {reply.status}")
        return json.loads(reply.raw)

    def trace_begin(self) -> None:
        self._before = self._stats()

    def trace_end(self) -> None:
        self._after = self._stats()

    def trace_metrics(self, tracer: Tracer, ops: List[Op],
                      replies: List[Any], replay: Tracer) -> Dict[str, float]:
        n = len(ops)
        run_ns = {span[4]: span[2] - span[1] for span in replay.spans
                  if span[0] == "worker.run"}
        hop = memo = codec = wire = 0
        for index, (op, reply) in enumerate(zip(ops, replies)):
            if not isinstance(reply, Reply):
                continue  # a failed request, already counted as failed
            codec += reply.codec_ns
            # Wall-clock fields blanked, so the count repeats exactly.
            wire += len(json.dumps(op["body"])) + len(masked(reply.raw))
            if op["kind"] == "hit":
                memo += reply.rt_ns
            else:
                hop += reply.rt_ns - run_ns[index]
        before, after = self._before, self._after

        def delta(*keys: str) -> int:
            a, b = after, before
            for key in keys:
                a, b = a[key], b[key]
            return int(a) - int(b)
        memo_hits = delta("server", "memo", "hits")
        memo_misses = delta("server", "memo", "misses")
        hits = delta("worker_engine", "hits")
        misses = delta("worker_engine", "misses")
        return dict(planning_counts(replay, n), **{
            "client.codec_ms": codec / n / 1e6,
            "server.memo_ms": memo / n / 1e6,
            "server.hop_ms": hop / n / 1e6,
            "server.bytes_per_op": wire / n,
            "server.memo_hit_share": memo_hits / max(1, memo_hits
                                                     + memo_misses),
            "api.memo_hit_share": hits / max(1, hits + misses),
            "runtime.store_appends": delta("worker_engine", "store",
                                           "records") / n,
        })
