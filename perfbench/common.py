"""Shared pieces: the answer-mismatch type, statistics, host probes,
process inspection and the paper's Table I check."""

from __future__ import annotations

import json
import math
import os
import random
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
OUT = Path(__file__).resolve().parent / "out"

#: Environment marker carried by every process the serve workload starts,
#: so a later run can recognise strays left behind by an earlier one.
MARKER = "PERFBENCH_SERVE"

#: Paper Table I, ResNet-18 on a 512x512 array.
TABLE1_VWSDK_CYCLES = 4294
TABLE1_SPEEDUP_VS_SDK = 1.69


class Mismatch(Exception):
    """An answer that differs from what the checker expects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def p90(values: Sequence[float]) -> Tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def deck(rng: random.Random, items: Sequence[Any]) -> Iterator[Any]:
    """Endless draws using every item once per shuffled round, so a run
    of any length holds the items in near-equal shares."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


#: Thread CPU time of one probe on a 2 GHz Xeon vCPU that the host's
#: other tenants leave alone.  Timings are reported at that host speed.
REFERENCE_PROBE_NS = 400_000

#: A probe runs between ops once this much loop time has passed since
#: the last one, so probing costs a few per cent of a run.
PROBE_EVERY_NS = 20_000_000

#: Probes this close to an op's start give the host speed it ran at.
PROBE_WINDOW_NS = 250_000_000

_PROBE_MATRIX = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) / 1e4


def probe_ns() -> int:
    """Thread CPU time of a fixed pure-Python plus numpy loop.

    A virtual machine sees its host's other tenants as CPU time: when
    they slow the host, a probe takes longer by about the factor every
    op does.  Another process on the benchmark's CPU does not lengthen
    a probe's CPU time, so work the program defers past an op's reply
    is not mistaken for a slower host."""
    start = time.thread_time_ns()
    total = 0
    for i in range(5000):
        total += i * i
    product = _PROBE_MATRIX
    for _ in range(3):
        product = product @ _PROBE_MATRIX / 64.0
    return time.thread_time_ns() - start


def host_factors(at: Sequence[int],
                 probes: Sequence[Tuple[int, int]]) -> np.ndarray:
    """For each instant in *at*, ``REFERENCE_PROBE_NS`` over the mean
    probe time within ``PROBE_WINDOW_NS`` of it (the next probe if none
    is that close).  *probes* holds ``(perf_counter_ns, probe_ns)``
    pairs in time order."""
    times = np.asarray([when for when, _ in probes], dtype=np.int64)
    cumulative = np.concatenate(
        [[0.0], np.cumsum([ns for _, ns in probes], dtype=np.float64)])
    instants = np.asarray(at, dtype=np.int64)
    lo = np.searchsorted(times, instants - PROBE_WINDOW_NS)
    hi = np.minimum(np.maximum(np.searchsorted(times, instants
                                               + PROBE_WINDOW_NS), lo + 1),
                    len(times))
    lo = np.minimum(lo, hi - 1)
    return REFERENCE_PROBE_NS * (hi - lo) / (cumulative[hi] - cumulative[lo])


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise Mismatch(f"no VmHWM for process {pid}")


def _ppid(pid: int) -> int:
    with open(f"/proc/{pid}/stat") as handle:
        return int(handle.read().rsplit(")", 1)[1].split()[1])


def _pids() -> List[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def descendants(root: int) -> List[int]:
    """Every live process below *root*."""
    parents: Dict[int, int] = {}
    for pid in _pids():
        try:
            parents[pid] = _ppid(pid)
        except OSError:
            continue
    found: List[int] = []
    frontier = [root]
    while frontier:
        current = frontier.pop()
        for pid, parent in parents.items():
            if parent == current:
                found.append(pid)
                frontier.append(pid)
    return found


def alive(pid: int) -> bool:
    """Running and not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stray_servers() -> List[int]:
    """Running ``repro serve`` processes and anything started under one
    by an earlier benchmark run (pool workers, resource trackers)."""
    found = []
    for pid in _pids():
        if pid == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                argv = handle.read().split(b"\0")
        except OSError:
            continue
        if b"repro" in argv and b"serve" in argv:
            found.append(pid)
            continue
        try:
            with open(f"/proc/{pid}/environ", "rb") as handle:
                env = handle.read().split(b"\0")
        except OSError:
            continue
        if any(entry.startswith(MARKER.encode() + b"=") for entry in env):
            found.append(pid)
    return found


def load_fixture(name: str) -> Any:
    """A committed golden frontier (read only)."""
    return json.loads((FIXTURES / f"chip_pareto_{name}.json").read_text())


def frontier_rows(points: Sequence[Any]) -> List[Dict[str, Any]]:
    """``chip_pareto`` points in the fixtures' row form."""
    return [{"pool": p.pool, "num_arrays": p.num_arrays, "cells": p.cells,
             "energy_nj": p.energy_nj,
             "bottleneck_cycles": p.bottleneck_cycles,
             "latency_us": p.latency_us} for p in points]


def check_front(rows: Sequence[Dict[str, Any]]) -> None:
    """A chip front: non-empty, sorted by cells, nothing dominated."""
    expect(len(rows) > 0, "empty chip front")
    values = np.asarray([[r["cells"], r["energy_nj"], r["bottleneck_cycles"]]
                         for r in rows], dtype=np.float64)
    expect(bool(np.all(np.diff(values[:, 0]) >= 0)),
           "chip front not sorted by cells")
    less_eq = (values[:, None, :] <= values[None, :, :]).all(axis=2)
    less = (values[:, None, :] < values[None, :, :]).any(axis=2)
    expect(not bool((less_eq & less).any()),
           "chip front has a dominated point")


def check_table1(engine: Any) -> int:
    """Paper Table I on ResNet-18 @ 512x512; returns the cycle error."""
    from repro.core import PIMArray
    from repro.networks import get_network
    net, array = get_network("resnet18"), PIMArray.square(512)
    vw = engine.network_cycles(net, array, "vw-sdk")
    sdk = engine.network_cycles(net, array, "sdk")
    expect(round(sdk / vw, 2) == TABLE1_SPEEDUP_VS_SDK,
           f"SDK/VW-SDK speedup {sdk / vw:.3f} != Table I "
           f"{TABLE1_SPEEDUP_VS_SDK}")
    error = abs(vw - TABLE1_VWSDK_CYCLES)
    expect(error == 0, f"VW-SDK cycles {vw} != Table I "
           f"{TABLE1_VWSDK_CYCLES}")
    return error


class InProcess:
    """Base of the workloads that call the library in this process."""

    inline_checks = True

    def check(self, op: Dict[str, Any], answer: Any) -> None:
        raise NotImplementedError

    def verdict(self, op: Dict[str, Any], answer: Any) -> Optional[str]:
        """Why *answer* is wrong (a raised error counts), or ``None``."""
        from repro.core.types import ReproError
        if isinstance(answer, ReproError):
            return f"{type(answer).__name__}: {answer}"
        try:
            self.check(op, answer)
        except Mismatch as exc:
            return str(exc)
        return None

    def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb()

    def trace_begin(self) -> None:
        pass

    def trace_end(self) -> None:
        pass
