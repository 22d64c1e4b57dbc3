"""Bench: the HTTP front door — sustained req/s, hot vs cold.

Boots a real :class:`~repro.server.ServerThread` (two worker
processes driven over pipes + shared store) on loopback and measures
sustained requests per second over one keep-alive connection:

* **cold** — every request carries a *distinct* layer geometry, so it
  misses the server's response memo AND every worker engine's LRU and
  runs Algorithm 1 in a worker process (serialization + two pipe
  writes + solve: the honest worst case);
* **hot** — the same request repeated, answered from the server-side
  response memo without a process hop (the steady state for fleet
  traffic, where a handful of production networks dominate).

The client is a minimal raw-socket HTTP/1.1 driver rather than
``http.client`` — at memo-hit speeds (~100 µs/request) the stdlib
client's per-response object churn dominates the measurement and
understates the server by ~2x; the bench must report what the *server*
sustains, not what one Python client can parse.

The committed ``BENCH_serve.json`` floor asserts hot ≥ 3x cold —
below the 6-10x a 2-vCPU VM measures now that the pipe-driven workers
made cold requests cheaper — so a change that accidentally routes
memo-hits through a worker (or serializes twice) fails
``check_regressions.py`` instead of silently shipping.

Run under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py --benchmark-only

or as a script, which times both paths and writes ``BENCH_serve.json``
next to this file (``--smoke`` shrinks the request counts for CI)::

    PYTHONPATH=src python benchmarks/bench_serve.py [--smoke]
"""

import json
import socket
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.server import ServerThread

#: The hot request: the paper's ResNet-18 conv4 on the 512x512 array.
HOT = {"request": {"layer": {"ifm": 14, "kernel": 3, "ic": 256, "oc": 256},
                   "array": {"rows": 512, "cols": 512},
                   "scheme": "vw-sdk"}}


def cold_envelope(n: int) -> dict:
    """The *n*-th distinct-geometry request (never repeats for
    ``n < 32768``, deep enough that nothing below the socket caches)."""
    return {"request": {
        "layer": {"ifm": 7 + (n // 1024), "kernel": 3,
                  "ic": 8 * (1 + n % 32), "oc": 8 * (1 + (n // 32) % 32)},
        "array": {"rows": 512, "cols": 512}, "scheme": "vw-sdk"}}


class RawClient:
    """A keep-alive HTTP/1.1 JSON client over one raw socket."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def post(self, path: str, body: dict) -> dict:
        payload = json.dumps(body).encode("utf-8")
        head = (f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n")
        self.sock.sendall(head.encode("latin-1") + payload)
        status, raw = self._read_response()
        decoded = json.loads(raw)
        assert status == 200, (status, decoded)
        return decoded

    def _read_response(self):
        while b"\r\n\r\n" not in self._buf:
            self._buf += self.sock.recv(65536)
        head, _, rest = self._buf.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                length = int(line.partition(b":")[2])
        while len(rest) < length:
            rest += self.sock.recv(65536)
        self._buf = rest[length:]
        return status, rest[:length]

    def close(self) -> None:
        self.sock.close()


def drive(client: RawClient, envelopes) -> float:
    """Sequential keep-alive requests; returns elapsed seconds."""
    start = time.perf_counter()
    for envelope in envelopes:
        client.post("/v1/map", envelope)
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def server():
    with tempfile.TemporaryDirectory() as tmp:
        with ServerThread(workers=2, backend="numpy",
                          store_path=str(Path(tmp) / "l2.jsonl")) as handle:
            yield handle


@pytest.fixture(scope="module")
def client(server):
    raw = RawClient(*server.address)
    yield raw
    raw.close()


def test_hot_memo_hits_skip_the_worker_tier(benchmark, client):
    """Repeated identical requests are answered from the server memo."""
    first = client.post("/v1/map", HOT)
    assert first["solution"]["cycles"] == 504
    result = benchmark(client.post, "/v1/map", HOT)
    assert result["cache"]["hit"] is True
    assert result["solution"] == first["solution"]


def test_cold_requests_solve_in_the_worker_tier(benchmark, client):
    """Distinct geometries pay the full hop + solve, and still answer."""
    counter = iter(range(30_000))

    def one_cold():
        return client.post("/v1/map", cold_envelope(next(counter)))

    result = benchmark.pedantic(one_cold, rounds=30, iterations=1)
    assert result["solution"]["cycles"] > 0


def main() -> int:
    from conftest import bench_payload, validate_bench_payload

    from repro.reporting import write_json

    smoke = "--smoke" in sys.argv[1:]
    cold_n, hot_n, reps = (40, 200, 1) if smoke else (200, 2000, 5)

    with tempfile.TemporaryDirectory() as tmp:
        with ServerThread(workers=2, backend="numpy",
                          store_path=str(Path(tmp) / "l2.jsonl")) as handle:
            client = RawClient(*handle.address)
            # Warm: the hot request into the memo, plus a cold batch so
            # first-call costs in the workers are off the clock.
            client.post("/v1/map", HOT)
            hot_check = client.post("/v1/map", HOT)
            assert hot_check["cache"]["hit"] is True
            drive(client, (cold_envelope(30_000 + n) for n in range(20)))

            # Min-over-reps (the noise-robust estimator the other
            # benches use): every cold batch uses untouched indices so
            # each repetition is genuinely cold end to end.
            cold_s = min(
                drive(client, (cold_envelope(rep * cold_n + n)
                               for n in range(cold_n)))
                for rep in range(reps))
            hot_s = min(drive(client, (HOT for _ in range(hot_n)))
                        for _ in range(reps))
            client.close()

    cold_rps = cold_n / cold_s
    hot_rps = hot_n / hot_s
    payload = bench_payload(
        "serve",
        cold_s / cold_n, hot_s / hot_n,    # per-request wall seconds
        floor=3.0,
        workload=f"/v1/map over loopback keep-alive HTTP/1.1; "
                 f"{cold_n} distinct-geometry cold requests vs "
                 f"{hot_n} repeats of the paper's conv4 request; "
                 f"2 worker processes, numpy backend, shared store",
        throughput={
            "cold_rps": round(cold_rps, 1),
            "hot_rps": round(hot_rps, 1),
        },
        smoke=smoke,
    )
    problems = validate_bench_payload(payload)
    assert not problems, problems
    if smoke:
        print(f"smoke: cold {cold_rps:.0f} req/s, hot {hot_rps:.0f} req/s, "
              f"speedup {payload['speedup']}x (artifact not written)")
        return 0
    path = write_json(Path(__file__).parent / "BENCH_serve.json", payload)
    print(f"wrote {path}")
    print(f"cold: {cold_rps:.0f} req/s  hot: {hot_rps:.0f} req/s  "
          f"speedup: {payload['speedup']}x (floor {payload['floor']}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
