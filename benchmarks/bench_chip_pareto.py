"""Bench: energy/area-aware chip frontiers vs the scalar path.

``chip_pareto`` prices whole deployment frontiers in closed form: each
candidate plan's memoized :class:`~repro.chip.sweep.ChipLattice` reads
its breakpoint rows straight off ``needed = ceil(n_pw / L)``
(:meth:`~repro.chip.sweep.ChipLattice.frontier_sweep`, no greedy
replay), with per-stage energy priced once, and the union is pruned
by one skyline before any point object is built.  The pre-lattice
path would run the ``heapq`` greedy *and* re-price every stage through
the scalar ``cost_report`` at every probe, then extract the 3-D front
with the generic ``pareto_front``.  This bench warms the memos, times
both over the same probe set, asserts identical frontiers, and guards
the speedup floor (50x: the batched greedy replay this replaced
measured ~30x).

Run under pytest (CI smoke)::

    PYTHONPATH=src python -m pytest benchmarks/bench_chip_pareto.py -q

or as a script, which writes ``BENCH_chip_pareto.json`` (shared schema
+ floor, checked by ``benchmarks/check_regressions.py``)::

    PYTHONPATH=src python benchmarks/bench_chip_pareto.py
"""

import math
import time
from typing import List, Tuple

from repro.api import default_engine
from repro.chip import ChipConfig, plan_pipeline, pool_plans
from repro.core import CostParams, PIMArray, cost_report
from repro.dse import chip_pareto
from repro.dse.pareto import pareto_front
from repro.networks import resnet18, vgg13

PARAMS = CostParams()
SIDES = (128, 256, 512)
POOL = tuple(PIMArray.square(side) for side in SIDES)

#: Budget cap: keeps the per-probe heapq baseline tractable (its cost
#: grows with the replica count granted) without changing the story.
MAX_ARRAYS = 8192

Objectives = Tuple[int, float, int]


def scalar_frontier(network) -> List[Objectives]:
    """The pre-lattice path: per-probe greedy + per-probe cost_report.

    Per-layer solutions are hoisted (the engine memo would do that
    anyway); what is timed is exactly what the batched path replaces —
    re-running the ``heapq`` allocator and re-pricing every stage at
    every budget probe, then the generic O(n^2) frontier extraction.
    """
    engine = default_engine()
    points: List[Objectives] = []
    for plan in pool_plans(network, POOL, include_mixed=True,
                           engine=engine, cost_params=PARAMS):
        solutions = [engine.solve(layer, array, "vw-sdk")
                     for layer, array in zip(network, plan.arrays)]
        lattice = engine.chip_lattice(network, plan.arrays, "vw-sdk",
                                      cost_params=PARAMS)
        previous = None
        for count in lattice.frontier_counts(MAX_ARRAYS).tolist():
            greedy = plan_pipeline(network,
                                   ChipConfig(solutions[0].array, count),
                                   "vw-sdk", solutions=solutions)
            energy = math.fsum(
                cost_report(sol, PARAMS).compute_energy_nj
                for sol in solutions for _ in range(sol.layer.repeats))
            cells = sum(a.arrays * a.solution.layer.repeats
                        * a.solution.array.cells
                        for a in greedy.allocations)
            if greedy.bottleneck_cycles == previous:
                continue
            previous = greedy.bottleneck_cycles
            points.append((cells, energy, greedy.bottleneck_cycles))
    front = pareto_front(points, lambda p: p)
    return sorted(set(front))


def batched_frontier(network) -> List[Objectives]:
    """The optimized path: one memoized chip_pareto call."""
    front = chip_pareto(network, POOL, pools=True, cost_params=PARAMS,
                        max_arrays=MAX_ARRAYS)
    return sorted({point.objectives for point in front})


def test_frontiers_identical():
    """The batched frontier equals the scalar-path frontier exactly."""
    for network in (resnet18(), vgg13()):
        assert batched_frontier(network) == scalar_frontier(network)


def test_batched_frontier_speed(benchmark):
    fronts = benchmark(
        lambda: [batched_frontier(net) for net in (resnet18(), vgg13())])
    assert all(front for front in fronts)


def main() -> int:
    """Time both frontier paths and write BENCH_chip_pareto.json."""
    from pathlib import Path

    from conftest import bench_payload, validate_bench_payload

    from repro.reporting import write_json

    networks = (resnet18(), vgg13())
    # Warm the engine's solution/lattice memos so both paths time the
    # per-probe planning + pricing, not the one-off mapping search.
    for network in networks:
        batched_frontier(network)

    start = time.perf_counter()
    baseline = [scalar_frontier(network) for network in networks]
    baseline_s = time.perf_counter() - start

    runs = 5
    start = time.perf_counter()
    for _ in range(runs):
        batched = [batched_frontier(network) for network in networks]
    optimized_s = (time.perf_counter() - start) / runs

    assert batched == baseline, "chip_pareto diverged from scalar path"

    points = sum(len(front) for front in batched)
    payload = bench_payload(
        "chip_pareto_frontier",
        baseline_s, optimized_s,
        floor=50.0,
        workload=(f"3-D (cells, energy, bottleneck) deployment frontiers "
                  f"over pools {'/'.join(map(str, SIDES))} with the mixed "
                  f"plan, resnet18 + vgg13"),
        frontier_points=points,
        baseline_path="per-probe heapq greedy + per-probe cost_report "
                      "+ generic pareto_front",
        optimized_path="closed-form frontier rows (ceil(n_pw/L) at each "
                       "breakpoint budget, no greedy replay) + one "
                       "skyline prune",
    )
    # validate_bench_payload also enforces speedup >= floor.
    assert not validate_bench_payload(payload)
    path = write_json(Path(__file__).parent / "BENCH_chip_pareto.json",
                      payload)
    print(f"wrote {path}")
    print(f"scalar path: {baseline_s:.3f}s  batched chip_pareto: "
          f"{optimized_s:.4f}s  speedup: {payload['speedup']}x "
          f"({points} frontier points)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
