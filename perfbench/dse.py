"""The ``dse`` workload: one long-lived in-process engine answering
chip and array design-space queries, as a DSE script would.

Op classes (a shuffled block of 24 ops, so every run has the same mix):

* ``chip`` (16): ``chip_pareto`` over a 3-side square ladder, every
  one of the 20 ladders in turn, with ``max_arrays`` unset or seeded in
  turn.  ResNet-18 takes 12 (half with ``pools``), VGG-13 takes 4.  The
  median chip call lands inside the ResNet-18 cluster, and the run's
  p90 inside the VGG-13 cluster.
* ``array`` (8): ``array_pareto`` (non-square candidates) under a
  seeded cell budget: ResNet-18 seven times in ten, else another zoo
  network.

The ladders need more chip lattices than the engine's 32-entry sweep
memo holds, so a steady share of ops rebuilds a lattice while the
solution memo mostly hits.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Dict, Iterator, List, Tuple

from common import InProcess, check_front, check_table1, deck, expect, \
    frontier_rows, load_fixture
from spans import Patches, Tracer

SIDES = (96, 128, 192, 256, 384, 512)
GOLDEN_LADDER = (128, 256, 512)
ARRAY_NETS = ("alexnet", "vgg11", "vgg13", "resnet18-full")
BLOCK = ["array"] * 8 + ["resnet18"] * 12 + ["vgg13"] * 4

Op = Dict[str, Any]


class Dse(InProcess):
    trace_ops = 144

    def setup(self) -> Dict[str, float]:
        from repro.api.engine import MappingEngine
        from repro.core import PIMArray
        from repro.dse.pareto import array_pareto
        from repro.networks import get_network
        self.engine = MappingEngine(backend="numpy")
        error = check_table1(self.engine)
        ladder = [PIMArray.square(s) for s in GOLDEN_LADDER]
        for net in ("resnet18", "vgg13"):
            front = self.engine.chip_pareto(get_network(net), ladder)
            expect(frontier_rows(front) == load_fixture(net),
                   f"{net} golden chip front differs from the fixture")
        for net in ("resnet18",) + ARRAY_NETS:
            array_pareto(get_network(net), engine=self.engine)
        return {"model.table1_error_cycles": float(error)}

    def ops(self, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        ladders = list(itertools.combinations(SIDES, 3))
        sides = {net: deck(rng, ladders) for net in ("resnet18", "vgg13")}
        capped = {net: deck(rng, (False, True))
                  for net in ("resnet18", "vgg13")}
        pools = deck(rng, (False, True))
        for kind in deck(rng, BLOCK):
            if kind == "array":
                net = "resnet18" if rng.random() < 0.7 \
                    else rng.choice(ARRAY_NETS)
                yield {"kind": "array", "net": net,
                       "max_cells": rng.randint(192 * 192, 768 * 768)}
                continue
            yield {"kind": "chip", "net": kind,
                   "sides": next(sides[kind]),
                   "pools": next(pools) if kind == "resnet18" else False,
                   "max_arrays": rng.randint(400, 1200)
                   if next(capped[kind]) else None}

    @staticmethod
    def fast(op: Op) -> bool:
        return op["kind"] == "array"

    def execute(self, op: Op) -> Any:
        from repro.core import PIMArray
        from repro.dse import pareto
        from repro.networks import get_network
        if op["kind"] == "array":
            return pareto.array_pareto(get_network(op["net"]),
                                       max_cells=op["max_cells"],
                                       engine=self.engine)
        return self.engine.chip_pareto(
            get_network(op["net"]), [PIMArray.square(s) for s in op["sides"]],
            pools=op["pools"], max_arrays=op["max_arrays"])

    @staticmethod
    def canon(op: Op, answer: Any) -> Tuple[Any, ...]:
        if op["kind"] == "array":
            return tuple((p.array.rows, p.array.cols, p.cycles)
                         for p in answer)
        return tuple(tuple(row.values()) for row in frontier_rows(answer))

    def check(self, op: Op, answer: Any) -> None:
        if op["kind"] == "array":
            expect(len(answer) > 0, "empty array front")
            cells = [p.cells for p in answer]
            cycles = [p.cycles for p in answer]
            expect(all(a < b for a, b in zip(cells, cells[1:])),
                   "array front not strictly sorted by cells")
            expect(all(a > b for a, b in zip(cycles, cycles[1:])),
                   "array front has a dominated point")
            return
        rows = frontier_rows(answer)
        if op["sides"] == GOLDEN_LADDER and not op["pools"] \
                and op["max_arrays"] is None:
            expect(rows == load_fixture(op["net"]),
                   f"{op['net']} golden chip front differs from the fixture")
        else:
            check_front(rows)

    # -- traced run ---------------------------------------------------

    def instrument(self, patches: Patches) -> None:
        instrument_planning(patches)

    def trace_begin(self) -> None:
        self._before = self.engine.stats

    def trace_end(self) -> None:
        self._after = self.engine.stats

    def trace_metrics(self, tracer: Tracer, ops: List[Op],
                      answers: List[Any], replay: Tracer) -> Dict[str, float]:
        hits = self._after.hits - self._before.hits
        misses = self._after.misses - self._before.misses
        return dict(planning_counts(tracer, len(ops)),
                    **{"api.memo_hit_share": hits / max(1, hits + misses)})


def planning_counts(tracer: Tracer, n: int) -> Dict[str, float]:
    """Per-op counts of the planning layers recorded by *tracer*."""
    counts = tracer.counts
    builds = counts.get("chip.lattice_builds", 0)
    rebuild_ops = {span[4] for span in tracer.spans
                   if span[0] == "chip.lattice_build"}
    return {
        "api.sweep_memo_hit_share":
            1.0 - builds / max(1, counts.get("api.chip_lattice_calls", 0)),
        "chip.lattice_builds": builds / n,
        "chip.outcomes": counts.get("chip.outcomes", 0) / n,
        "dse.prune_points": counts.get("dse.prune_points", 0) / n,
        "share.lattice_rebuild_ops": len(rebuild_ops) / n,
    }


def instrument_planning(patches: Patches) -> None:
    """Spans around the planning layers: api, search, core, chip, dse."""
    from repro.api.engine import MappingEngine
    from repro.api.registry import SolverRegistry
    from repro.chip.sweep import ChipLattice, ChipSweep
    from repro.core.sweep import NetworkLattice
    from repro.dse import pareto
    tracer = patches.tracer
    solver = SolverRegistry.solver
    patches.replace(SolverRegistry, "solver",
                    lambda registry, name: tracer.wrap(
                        "search.solve", solver(registry, name)))
    patches.wrap(MappingEngine, "map", "api.solve")
    patches.wrap(MappingEngine, "chip_pareto", "api.chip_pareto")
    patches.wrap(MappingEngine, "chip_lattice", "api.chip_lattice",
                 hook=lambda t, a, r: t.count("api.chip_lattice_calls"))
    patches.wrap(MappingEngine, "sweep_cycles", "api.sweep_cycles")
    patches.wrap(pareto, "chip_pareto", "dse.chip_pareto")
    patches.wrap(pareto, "array_pareto", "dse.array_pareto")
    prune = pareto._non_dominated

    def counted_prune(values: Any) -> Any:
        tracer.count("dse.prune_points", len(values))
        return prune(values)
    # Counted, not timed: the prune is part of chip_pareto's self time.
    patches.replace(pareto, "_non_dominated", counted_prune)
    patches.wrap(pareto, "pool_plans", "chip.pool_plans")
    patches.wrap(ChipLattice, "for_solutions", "chip.lattice_build",
                 hook=lambda t, a, r: t.count("chip.lattice_builds"))
    patches.wrap(ChipLattice, "frontier_counts", "chip.frontier_counts")
    patches.wrap(ChipLattice, "sweep", "chip.sweep")
    patches.wrap(ChipSweep, "outcome", "chip.outcome",
                 hook=lambda t, a, r: t.count("chip.outcomes"))
    patches.wrap(NetworkLattice, "for_network", "core.network_lattice")
    patches.wrap(NetworkLattice, "cycles_for", "core.cycles_for")
