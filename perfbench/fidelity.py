"""The ``fidelity`` workload: functional replay of a golden frontier
stage on the simulated PIM stack, with a fresh input seed per op.

The stage is ResNet-18's 56x56, 64->64 3x3 conv as placed by the
golden 512x512 Table-I plan (``tests/fixtures/chip_pareto_resnet18.json``).
Both classes replay that one shape, so each class median sits inside a
single cost cluster:

* ``ideal`` (7 of every 10 ops): ``NoNoise``; must be bit-exact against
  ``conv2d_reference`` with the planned cycle count;
* ``noisy`` (3 of 10): lognormal device noise with a seeded sigma; the
  stage's accuracy proxy must lie strictly inside (0, 1).

Ideal and noisy replays share the crossbar path, so a ``NoNoise``-only
fast path that slows noisy replays shows in the noisy median.  VGG-13
stages take 200-580 ms a replay, too few per run for a p90 with ten
samples beyond it; VGG-13's golden front is checked at setup instead.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, Iterator, List, Tuple

from common import InProcess, check_table1, deck, expect, frontier_rows, \
    load_fixture
from spans import Patches, Tracer

GOLDEN_LADDER = (128, 256, 512)
STAGE_POOL, STAGE_INDEX = "512x512", 1
SIGMAS = (0.02, 0.05, 0.1)
BLOCK = ["ideal"] * 7 + ["noisy"] * 3

Op = Dict[str, Any]


class Fidelity(InProcess):
    trace_ops = 60

    def setup(self) -> Dict[str, float]:
        from repro.api.engine import MappingEngine
        from repro.core import PIMArray
        from repro.networks import get_network
        from repro.pim.replay import replay_stage
        engine = MappingEngine(backend="numpy")
        error = check_table1(engine)
        ladder = [PIMArray.square(s) for s in GOLDEN_LADDER]
        fronts = {}
        for net in ("resnet18", "vgg13"):
            fronts[net] = engine.chip_pareto(get_network(net), ladder)
            expect(frontier_rows(fronts[net]) == load_fixture(net),
                   f"{net} golden chip front differs from the fixture")
        point = next(p for p in fronts["resnet18"] if p.pool == STAGE_POOL)
        self.solution = point.solutions[STAGE_INDEX]
        replay_stage(self.solution, stage=STAGE_INDEX)
        return {"model.table1_error_cycles": float(error)}

    def ops(self, seed: int) -> Iterator[Op]:
        rng = random.Random(seed)
        for kind in deck(rng, BLOCK):
            yield {"kind": kind, "seed": rng.randrange(2 ** 31),
                   "sigma": rng.choice(SIGMAS) if kind == "noisy"
                   else 0.0}

    @staticmethod
    def fast(op: Op) -> bool:
        return op["kind"] == "ideal"

    def execute(self, op: Op) -> Any:
        from repro.pim import replay
        from repro.pim.noise import NoNoise, make_noise
        noise = make_noise(sigma=op["sigma"]) if op["kind"] == "noisy" \
            else NoNoise()
        return replay.replay_stage(self.solution, noise=noise,
                                   seed=op["seed"], stage=STAGE_INDEX)

    @staticmethod
    def canon(op: Op, answer: Any) -> Tuple[Any, ...]:
        return dataclasses.astuple(answer)

    def check(self, op: Op, answer: Any) -> None:
        from repro.pim.replay import FidelityReport, FidelitySpec
        if op["kind"] == "ideal":
            expect(answer.exact, "ideal replay differs from conv2d_reference")
            expect(answer.cycles == self.solution.cycles,
                   f"replay ran {answer.cycles} cycles, plan says "
                   f"{self.solution.cycles}")
            return
        proxy = FidelityReport(FidelitySpec(), (answer,)).accuracy_proxy
        expect(0.0 < proxy < 1.0,
               f"noisy accuracy proxy {proxy} not in (0, 1)")

    # -- traced run ---------------------------------------------------

    def instrument(self, patches: Patches) -> None:
        from repro.mapping.plan import MappingPlan, TilePlan
        from repro.pim import engine, replay
        from repro.pim.crossbar import Crossbar
        patches.wrap(replay, "replay_stage", "pim.replay")
        patches.wrap(replay, "stage_inputs", "pim.stage_inputs")
        patches.wrap(replay, "conv2d_reference", "pim.reference")
        patches.wrap(engine.PIMEngine, "run", "pim.engine")
        patches.wrap(engine, "build_plan", "mapping.build_plan")
        patches.wrap(MappingPlan, "validate", "mapping.validate")
        patches.wrap(TilePlan, "build_weights", "mapping.build_weights")
        patches.wrap(Crossbar, "program", "pim.program",
                     hook=lambda t, a, r: t.count("pim.tiles"))
        patches.wrap(Crossbar, "compute", "pim.compute", hook=_count_macs)

    def trace_metrics(self, tracer: Tracer, ops: List[Op],
                      answers: List[Any], replay: Tracer) -> Dict[str, float]:
        n = len(ops)
        macs = tracer.counts.get("pim.macs", 0)
        wall = sum(end - start for name, start, end, *_ in tracer.spans
                   if name == "bench.op")
        return {"pim.tiles": tracer.counts.get("pim.tiles", 0) / n,
                "pim.macs": macs / n,
                "pim.ns_per_mac": wall / max(1, macs),
                "share.noisy_ops": sum(op["kind"] == "noisy"
                                       for op in ops) / n}


def _count_macs(tracer: Tracer, args: Tuple[Any, ...], result: Any) -> None:
    crossbar, inputs = args[0], args[1]
    rows, cols = crossbar.active_shape
    batch = inputs.shape[0] if inputs.ndim > 1 else 1
    tracer.count("pim.macs", batch * rows * cols)
