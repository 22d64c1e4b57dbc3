"""Bench: shared-lattice array sweeps vs per-probe re-solving.

The acceptance number behind ``repro.core.sweep`` and the batched
engine path: answering *total network cycles* for a whole sweep of
candidate array sizes — the workload behind ``smallest_square_array``
bisections and ``array_pareto`` — must be at least 20x faster through
one batched :class:`~repro.core.sweep.NetworkLattice` evaluation than
re-solving every ``(layer, array)`` problem per probe, and bit-
identical to it.

Run under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_dse.py --benchmark-only

or as a script, which times both paths and writes the comparison to
``BENCH_dse.json`` (shared schema + floor, see ``benchmarks/conftest.py``)::

    PYTHONPATH=src python benchmarks/bench_dse.py
"""

import time
from typing import List, Sequence

from repro.api import MappingEngine
from repro.core import NetworkLattice, PIMArray
from repro.dse import smallest_chip, smallest_square_array, window_pareto
from repro.networks import resnet18, vgg16

#: The smallest_square_array-style probe set: every side the bisection
#: range could visit, at a step fine enough to exercise the grid.
SWEEP_SIDES = tuple(range(8, 521, 8))


def sweep_arrays() -> List[PIMArray]:
    """Square candidate arrays of a DSE sizing sweep."""
    return [PIMArray.square(side) for side in SWEEP_SIDES]


def per_probe_sweep(network, arrays: Sequence[PIMArray]) -> List[int]:
    """The pre-lattice path: re-solve every (layer, array) per probe.

    A fresh memoizing engine per sweep mirrors the seed behaviour —
    every probe's array is distinct, so the memo never helps across
    probes.
    """
    engine = MappingEngine()
    return [sum(engine.solve(layer, array, "vw-sdk").cycles
                for layer in network)
            for array in arrays]


def shared_lattice_sweep(network, arrays: Sequence[PIMArray]) -> List[int]:
    """The batched path: one NetworkLattice, one vectorized evaluation."""
    lattice = NetworkLattice.for_network(network, "vw-sdk")
    return lattice.cycles_for(arrays).tolist()


def test_shared_sweep_matches_per_probe():
    """Bit-identical totals on every probe of the sweep."""
    arrays = sweep_arrays()
    for network in (resnet18(), vgg16()):
        assert shared_lattice_sweep(network, arrays) == \
            per_probe_sweep(network, arrays)


def test_shared_sweep_speed(benchmark):
    """The batched array sweep (the optimized path)."""
    totals = benchmark(shared_lattice_sweep, resnet18(), sweep_arrays())
    benchmark.extra_info["probes"] = len(totals)


def test_sweep_speedup_at_least_20x():
    """The ISSUE acceptance bound on the resnet18+vgg16 sweep."""
    arrays = sweep_arrays()
    networks = (resnet18(), vgg16())
    start = time.perf_counter()
    for network in networks:
        per_probe_sweep(network, arrays)
    baseline_s = time.perf_counter() - start
    start = time.perf_counter()
    for network in networks:
        shared_lattice_sweep(network, arrays)
    optimized_s = time.perf_counter() - start
    assert baseline_s / optimized_s >= 20.0


def test_smallest_array_bisection(benchmark):
    """Smallest square array hitting the paper's 4294-cycle total."""
    array = benchmark(smallest_square_array, resnet18(), 4294)
    assert array is not None
    benchmark.extra_info["side"] = array.rows


def test_smallest_chip_closed_form(benchmark):
    """Fewest 512x512 crossbars for a 200-cycle pipeline bottleneck."""
    chip = benchmark(smallest_chip, resnet18(), PIMArray.square(512), 200,
                     max_arrays=4096)
    assert chip is not None
    benchmark.extra_info["arrays"] = chip.num_arrays


def test_window_pareto_frontier(benchmark):
    """Cycles-vs-utilization frontier of ResNet-18 conv4_x."""
    from repro.core import ConvLayer
    layer = ConvLayer.square(14, 3, 256, 256)
    front = benchmark(window_pareto, layer, PIMArray.square(512))
    assert front[0].cycles == 504
    benchmark.extra_info["front_size"] = len(front)


def main() -> int:
    """Time both sweep paths and write BENCH_dse.json."""
    from pathlib import Path

    from conftest import bench_payload, validate_bench_payload

    from repro.reporting import write_json

    arrays = sweep_arrays()
    networks = (resnet18(), vgg16())
    probes = len(arrays) * sum(len(net) for net in networks)

    start = time.perf_counter()
    baseline = [per_probe_sweep(net, arrays) for net in networks]
    baseline_s = time.perf_counter() - start

    runs = 10
    start = time.perf_counter()
    for _ in range(runs):
        batched = [shared_lattice_sweep(net, arrays) for net in networks]
    optimized_s = (time.perf_counter() - start) / runs

    assert batched == baseline, "shared-lattice sweep diverged from per-probe"

    payload = bench_payload(
        "dse_array_sweep",
        baseline_s, optimized_s,
        floor=20.0,
        workload=(f"total network cycles for {len(arrays)} candidate "
                  f"square arrays ({SWEEP_SIDES[0]}..{SWEEP_SIDES[-1]}), "
                  f"resnet18 + vgg16"),
        probes=probes,
        probe_arrays=len(arrays),
        baseline_probes_per_second=round(probes / baseline_s, 1),
        batched_probes_per_second=round(probes / optimized_s, 1),
    )
    # validate_bench_payload also enforces speedup >= floor.
    assert not validate_bench_payload(payload)
    path = write_json(Path(__file__).parent / "BENCH_dse.json", payload)
    print(f"wrote {path}")
    print(f"per-probe: {baseline_s:.3f}s  shared lattice: {optimized_s:.4f}s  "
          f"speedup: {payload['speedup']}x over {probes} probes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
