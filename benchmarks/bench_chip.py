"""Bench: chip-level pipeline planning (extension, not a paper figure).

Times the greedy min-max allocator, records the chip-level speedup of
VW-SDK over im2col — the compounding of the paper's single-array result
under weight residency — and asserts the acceptance number behind
``repro.chip.sweep``: replaying a whole grid of array-count probes from
one precomputed :class:`~repro.chip.sweep.ChipLattice` must be at least
10x faster than re-running the per-probe ``heapq`` greedy, and
bit-identical to it.

Run under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_chip.py --benchmark-only

or as a script, which times both planning paths and writes the
comparison to ``BENCH_chip.json`` (shared schema + floor, see
``benchmarks/conftest.py``)::

    PYTHONPATH=src python benchmarks/bench_chip.py
"""

import time
from typing import List, Sequence, Tuple

import pytest

from repro.api import default_engine
from repro.chip import ChipConfig, ChipLattice, plan_pipeline
from repro.chip.pipeline import InsufficientArraysError
from repro.core import PIMArray
from repro.networks import resnet18, vgg13

ARRAY = PIMArray.square(512)

#: A scaling-study probe grid: every count from below the floor to a
#: few thousand arrays.
SWEEP_COUNTS = tuple(range(1, 4097, 8))

Outcome = Tuple[int, int, int]


def per_probe_plans(network, counts: Sequence[int],
                    scheme: str = "vw-sdk") -> List[Outcome]:
    """The pre-lattice path: one heapq greedy run per probe.

    Per-layer solutions are hoisted (as ``smallest_chip`` already did),
    so this times exactly what the ChipLattice replaces: the per-probe
    allocation replanning.
    """
    engine = default_engine()
    solutions = [engine.solve(layer, ARRAY, scheme) for layer in network]
    outcomes: List[Outcome] = []
    for count in counts:
        try:
            plan = plan_pipeline(network, ChipConfig(ARRAY, count), scheme,
                                 solutions=solutions)
        except InsufficientArraysError:
            outcomes.append((-1, -1, -1))
            continue
        outcomes.append((plan.bottleneck_cycles, plan.fill_latency_cycles,
                         plan.arrays_used))
    return outcomes


def lattice_sweep(network, counts: Sequence[int],
                  scheme: str = "vw-sdk") -> List[Outcome]:
    """The batched path: one ChipLattice, one vectorized replay."""
    lattice = default_engine().chip_lattice(network, ARRAY, scheme)
    sweep = lattice.sweep(counts)
    outcomes: List[Outcome] = []
    for i in range(len(sweep)):
        point = sweep.outcome(i)
        outcomes.append((-1, -1, -1) if point is None else
                        (point.bottleneck_cycles, point.fill_latency_cycles,
                         point.arrays_used))
    return outcomes


def test_lattice_sweep_matches_per_probe_greedy():
    """Bit-identical outcomes on every probe of the grid."""
    for network in (resnet18(), vgg13()):
        assert lattice_sweep(network, SWEEP_COUNTS) == \
            per_probe_plans(network, SWEEP_COUNTS)


def test_lattice_sweep_speed(benchmark):
    """The batched chip sweep (the optimized path)."""
    outcomes = benchmark(lattice_sweep, resnet18(), SWEEP_COUNTS)
    benchmark.extra_info["probes"] = len(outcomes)


@pytest.mark.parametrize("num_arrays", [32, 64, 256])
def test_pipeline_planning_resnet(benchmark, num_arrays):
    """Plan ResNet-18 residency + replication on a crossbar pool."""
    chip = ChipConfig(ARRAY, num_arrays)
    plan = benchmark(plan_pipeline, resnet18(), chip, "vw-sdk")
    assert plan.arrays_used <= num_arrays
    benchmark.extra_info["bottleneck"] = plan.bottleneck_cycles


def test_pipeline_scheme_comparison(benchmark):
    """VW-SDK vs im2col at chip level (64 arrays)."""
    chip = ChipConfig(ARRAY, 64)

    def run():
        vw = plan_pipeline(resnet18(), chip, "vw-sdk")
        im = plan_pipeline(resnet18(), chip, "im2col")
        return vw, im

    vw, im = benchmark(run)
    speedup = vw.speedup_over(im)
    print(f"\nchip-level VW-SDK speedup over im2col: {speedup:.2f}x "
          f"(bottlenecks {vw.bottleneck_cycles} vs {im.bottleneck_cycles})")
    assert speedup > 1.0
    benchmark.extra_info["speedup"] = round(speedup, 3)


def test_pipeline_vgg13_large_chip(benchmark):
    """VGG-13 needs a big pool; plan it on 512 arrays."""
    chip = ChipConfig(ARRAY, 512)
    plan = benchmark(plan_pipeline, vgg13(), chip, "vw-sdk")
    assert plan.bottleneck_cycles <= 24642
    benchmark.extra_info["bottleneck"] = plan.bottleneck_cycles


def main() -> int:
    """Time both chip-planning paths and write BENCH_chip.json."""
    from pathlib import Path

    from conftest import bench_payload, validate_bench_payload

    from repro.reporting import write_json

    networks = (resnet18(), vgg13())
    probes = len(SWEEP_COUNTS) * len(networks)
    # Warm the engine's solution memo so both paths time pure planning.
    for network in networks:
        per_probe_plans(network, SWEEP_COUNTS[:1])

    start = time.perf_counter()
    baseline = [per_probe_plans(net, SWEEP_COUNTS) for net in networks]
    baseline_s = time.perf_counter() - start

    runs = 10
    start = time.perf_counter()
    for _ in range(runs):
        batched = [lattice_sweep(net, SWEEP_COUNTS) for net in networks]
    optimized_s = (time.perf_counter() - start) / runs

    assert batched == baseline, "chip-lattice sweep diverged from greedy"

    lattice = ChipLattice.for_network(resnet18(), ARRAY)
    payload = bench_payload(
        "chip_plan_sweep",
        baseline_s, optimized_s,
        floor=10.0,
        workload=(f"greedy pipeline outcomes for {len(SWEEP_COUNTS)} "
                  f"array-count probes (1..{SWEEP_COUNTS[-1]}), "
                  f"resnet18 + vgg13 on 512x512"),
        probes=probes,
        probe_counts=len(SWEEP_COUNTS),
        upgrade_runs_resnet18=lattice.num_groups,
        baseline_probes_per_second=round(probes / baseline_s, 1),
        batched_probes_per_second=round(probes / optimized_s, 1),
    )
    # validate_bench_payload also enforces speedup >= floor.
    assert not validate_bench_payload(payload)
    path = write_json(Path(__file__).parent / "BENCH_chip.json", payload)
    print(f"wrote {path}")
    print(f"per-probe greedy: {baseline_s:.3f}s  chip lattice: "
          f"{optimized_s:.4f}s  speedup: {payload['speedup']}x over "
          f"{probes} probes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
