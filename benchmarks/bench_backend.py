"""Bench: zoo-scale batched DSE vs cold per-network numpy sweeps.

The acceptance number behind the backend shim (``core/backend.py``)
and the minimized dtypes: running the full non-square
``array_candidates`` grid across **every** model-zoo network through
one ``zoo_pareto`` call — one engine, one candidate grid, window
fronts and layer grids shared across networks (the heavy 224x224 VGG
stages are dominance-pruned once and reused by VGG-11/13/16/19),
sweep scratch allocated per chunk of arrays — must be at least 2x
faster than re-running each network cold, and bit-identical to it.

``BENCH_backend.json`` additionally records the ``tracemalloc`` peak
of the whole-zoo call (``memory.peak_mb``) against a committed ceiling
(``memory.ceiling_mb``); ``check_regressions.py`` enforces the ceiling
the same way it enforces the speedup floor, so the sweep cannot
silently regrow per-probe allocations.

Run under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_backend.py --benchmark-only

or as a script, which times both paths and writes ``BENCH_backend.json``::

    PYTHONPATH=src python benchmarks/bench_backend.py
"""

import time
import tracemalloc
from typing import Dict, List, Sequence, Tuple

from repro.api import MappingEngine
from repro.core import lattice as core_lattice
from repro.core import sweep as core_sweep
from repro.dse import array_pareto, zoo_pareto
from repro.dse.pareto import array_candidates
from repro.networks.zoo import NETWORKS, get_network

#: Peak-memory ceiling (MB) for the whole-zoo non-square sweep.  The
#: committed run peaks around 7 MB; the ceiling leaves headroom for
#: allocator noise while still catching a return to per-probe churn.
MEMORY_CEILING_MB = 32.0

FrontTuples = Dict[str, List[Tuple[int, int, int, int]]]


def _clear_module_memos() -> None:
    """Drop the geometry-keyed module memos so every run starts cold."""
    core_sweep._FRONT_MEMO.clear()
    core_lattice._GRID_MEMO.clear()


def _as_tuples(fronts) -> FrontTuples:
    return {name: [(p.array.rows, p.array.cols, p.cells, p.cycles)
                   for p in points]
            for name, points in fronts.items()}


def cold_per_network(candidates: Sequence) -> FrontTuples:
    """The unshared baseline: every network swept by a fresh numpy engine.

    Module memos are cleared per network, so nothing — window fronts,
    layer grids, sweep lattices — carries over, mirroring
    seven independent ``array_pareto`` invocations.
    """
    fronts = {}
    for name in NETWORKS:
        _clear_module_memos()
        engine = MappingEngine(backend="numpy")
        fronts[name] = array_pareto(get_network(name), candidates,
                                    engine=engine)
    return _as_tuples(fronts)


def batched_zoo(candidates=None) -> FrontTuples:
    """The optimized path: one ``zoo_pareto`` call on one shared engine."""
    return _as_tuples(zoo_pareto(engine=MappingEngine(backend="numpy")))


def test_zoo_matches_cold_per_network():
    """Bit-identical frontiers, network for network, point for point."""
    candidates = array_candidates(512 * 512)
    assert batched_zoo() == cold_per_network(candidates)


def test_zoo_sweep_speed(benchmark):
    """The batched whole-zoo sweep (the optimized path)."""
    def run():
        _clear_module_memos()
        return batched_zoo()
    fronts = benchmark(run)
    benchmark.extra_info["networks"] = len(fronts)


def test_zoo_peak_memory_under_ceiling():
    """The whole-zoo call stays under the committed tracemalloc ceiling."""
    _clear_module_memos()
    tracemalloc.start()
    try:
        fronts = batched_zoo()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fronts) == len(NETWORKS)
    assert peak / 2**20 <= MEMORY_CEILING_MB


def main() -> int:
    """Time both paths, measure peak memory, write BENCH_backend.json."""
    from pathlib import Path

    from conftest import bench_payload, validate_bench_payload

    from repro.reporting import write_json

    candidates = array_candidates(512 * 512)

    start = time.perf_counter()
    baseline = cold_per_network(candidates)
    baseline_s = time.perf_counter() - start

    runs = 5
    start = time.perf_counter()
    for _ in range(runs):
        _clear_module_memos()
        batched = batched_zoo()
    optimized_s = (time.perf_counter() - start) / runs

    assert batched == baseline, "zoo_pareto diverged from cold sweeps"

    # Peak memory of the whole-zoo call, measured outside the timed
    # runs (tracemalloc instrumentation skews wall clock).
    _clear_module_memos()
    tracemalloc.start()
    try:
        batched_zoo()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak_mb = round(peak / 2**20, 2)
    assert peak_mb <= MEMORY_CEILING_MB, \
        f"peak {peak_mb} MB over the {MEMORY_CEILING_MB} MB ceiling"

    payload = bench_payload(
        "backend_zoo_sweep",
        baseline_s, optimized_s,
        floor=2.0,
        workload=(f"non-square array_pareto grid ({len(candidates)} "
                  f"candidates, max 512x512 cells) over all "
                  f"{len(NETWORKS)} zoo networks"),
        networks=list(NETWORKS),
        candidates=len(candidates),
        memory={"peak_mb": peak_mb, "ceiling_mb": MEMORY_CEILING_MB},
    )
    # validate_bench_payload also enforces the floor and the ceiling.
    assert not validate_bench_payload(payload)
    path = write_json(Path(__file__).parent / "BENCH_backend.json", payload)
    print(f"wrote {path}")
    print(f"cold per-network: {baseline_s:.3f}s  batched zoo: "
          f"{optimized_s:.4f}s  speedup: {payload['speedup']}x  "
          f"peak: {peak_mb} MB (ceiling {MEMORY_CEILING_MB} MB)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
