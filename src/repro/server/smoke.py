"""CI smoke driver: boot the server, drive every endpoint, crash a
worker, verify a replacement serves the next request.  Exit 0 on success, 1 with a
diagnosis otherwise.

Run as ``python -m repro.server.smoke`` (stdlib client only — this is
also the reference client implementation for ``docs/serving.md``).
"""

from __future__ import annotations

import http.client
import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from .app import ServerThread

__all__ = ["main"]


class _Client:
    """A keep-alive JSON client over one ``http.client`` connection."""

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def call(self, method: str, path: str,
             body: Optional[Dict[str, Any]] = None
             ) -> Tuple[int, Dict[str, Any]]:
        payload = json.dumps(body) if body is not None else None
        self.conn.request(method, path, payload,
                          {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


def _check(label: str, ok: bool, detail: str = "") -> None:
    if not ok:
        raise AssertionError(f"smoke failed at {label}: {detail}")
    print(f"  ok  {label}")


_REQ = {"layer": {"ifm": 14, "kernel": 3, "ic": 256, "oc": 256},
        "array": {"rows": 512, "cols": 512}, "scheme": "vw-sdk"}


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="serve-smoke-"))
    store = str(tmp / "l2.jsonl")
    print("booting server (2 worker processes, shared store, "
          "fault injection on) ...")
    with ServerThread(workers=2, store_path=store, backend="numpy",
                      fault_injection=True) as handle:
        client = _Client(*handle.address)

        status, body = client.call("GET", "/v1/healthz")
        _check("healthz", status == 200 and body.get("ok") is True,
               f"{status} {body}")

        status, body = client.call("POST", "/v1/map", {"request": _REQ})
        _check("map (cold)", status == 200
               and body["solution"]["cycles"] == 504
               and body["cache"]["hit"] is False, f"{status} {body}")

        status, body = client.call("POST", "/v1/map", {"request": _REQ})
        _check("map (memo hit)", status == 200
               and body["solution"]["cycles"] == 504
               and body["cache"]["hit"] is True, f"{status} {body}")

        status, body = client.call(
            "POST", "/v1/map_batch",
            {"requests": [_REQ, dict(_REQ, scheme="im2col")]})
        cycles = [r["solution"]["cycles"] for r in body.get("responses", ())]
        _check("map_batch", status == 200 and cycles == [504, 720],
               f"{status} {body}")

        status, body = client.call(
            "POST", "/v1/network_sweep",
            {"network": "resnet18", "arrays": [256, 512]})
        _check("network_sweep", status == 200
               and body.get("cycles") == [10287, 4294], f"{status} {body}")

        status, body = client.call(
            "POST", "/v1/chip_pareto",
            {"network": "resnet18", "sides": [256, 512]})
        _check("chip_pareto", status == 200
               and len(body.get("points", ())) > 0, f"{status} {body}")

        status, body = client.call(
            "POST", "/v1/map", {"request": dict(_REQ, scheme="vw-sdkk")})
        _check("unknown scheme -> 400 + did-you-mean",
               status == 400 and "did you mean" in body["error"]["message"],
               f"{status} {body}")

        status, body = client.call(
            "POST", "/v1/chip_pareto",
            {"network": "resnet18", "sides": [256], "max_arrays": 1})
        _check("infeasible -> 422", status == 422
               and body["error"]["type"] == "InfeasibleTargetError",
               f"{status} {body}")

        status, body = client.call(
            "POST", "/v1/network_sweep",
            {"network": "resnet18",
             "arrays": list(range(64, 1025, 8)), "deadline_ms": 0.001})
        _check("deadline -> 504 + partials", status == 504
               and body["error"]["type"] == "DeadlineExceededError"
               and "partial" in body["error"], f"{status} {body}")

        status, body = client.call("POST", "/v1/_crash_worker", {})
        _check("worker crash -> clean 503", status == 503
               and body["error"]["type"] == "WorkerCrashed",
               f"{status} {body}")

        status, body = client.call(
            "POST", "/v1/map", {"request": dict(_REQ, tag="post-crash")})
        _check("replacement worker serves after crash", status == 200
               and body["solution"]["cycles"] == 504, f"{status} {body}")

        status, body = client.call("GET", "/v1/stats")
        _check("stats", status == 200
               and body["server"]["worker_restarts"] == 1
               and body["server"]["requests"] >= 11, f"{status} {body}")
        client.close()

    # The shared store is the fleet-wide warm L2: at least the cold
    # map solve must have been persisted by some worker.
    from ..runtime.store import SolutionStore
    with SolutionStore(store) as l2:
        _check("shared store warmed", len(l2) >= 1,
               f"store has {len(l2)} records")
    print("serve smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
