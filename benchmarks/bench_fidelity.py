"""Bench: fidelity-replay throughput and the engine's replay memo.

The 4-D frontier (``chip_pareto(..., fidelity=...)``) replays design
points through the functional :class:`~repro.pim.engine.PIMEngine` —
the slowest oracle in the repo, cycle-faithful crossbar execution.
Two guards keep it usable at frontier scale:

1. **Replay memo.**  Frontier points overwhelmingly share per-stage
   solution plans (one homogeneous plan serves every budget along its
   staircase), so :meth:`~repro.api.engine.MappingEngine.point_fidelity`
   memoizes reports by ``(noise spec, per-stage geometry)``.  Attaching
   fidelity to a whole frontier must therefore cost a handful of
   replays, not one per point: a memo hit must beat a cold replay by
   the committed floor.

2. **Replay throughput.**  The cold path itself is tracked (stage
   replays per second on the Table-I poster-child layer), so a future
   change to the functional stack cannot silently make the fidelity
   axis unaffordable.

Run under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_fidelity.py --benchmark-only

or as a script, which writes ``BENCH_fidelity.json`` next to this
file::

    PYTHONPATH=src python benchmarks/bench_fidelity.py
"""

import time
from pathlib import Path

from repro.api.engine import MappingEngine
from repro.core import ConvLayer, PIMArray
from repro.pim.replay import replay_point

#: A small two-stage plan: big enough to exercise multi-tile execution,
#: small enough that the cold replay stays benchmarkable.
STAGES = (ConvLayer.square(12, 3, 8, 16), ConvLayer.square(8, 3, 16, 8))
ARRAY = PIMArray.square(128)


def plan(engine: MappingEngine):
    return [engine.solve(layer, ARRAY, "vw-sdk") for layer in STAGES]


def _min_over(reps: int, fn) -> float:
    """Min-of-N wall-clock — the noise-robust estimator for ratios."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_memo_hit_beats_cold_replay(benchmark):
    """point_fidelity memo hits skip the functional execution."""
    engine = MappingEngine()
    stages = plan(engine)
    cold = engine.point_fidelity(stages)  # populate the memo
    report = benchmark(engine.point_fidelity, stages)
    assert report is cold
    assert report.exact
    benchmark.extra_info["stages"] = len(stages)


def test_cold_replay_is_exact(benchmark):
    """The tracked cold path: full crossbar replay, bit-exact."""
    engine = MappingEngine()
    stages = plan(engine)
    report = benchmark(replay_point, stages)
    assert report.exact
    assert report.error_norm == 0.0  # repro: noqa[REP005] — exact by contract


def main() -> int:
    """Time cold replay vs memo hit and write BENCH_fidelity.json."""
    from conftest import bench_payload, validate_bench_payload

    from repro.reporting import write_json

    engine = MappingEngine()
    stages = plan(engine)
    reps = 5

    cold_s = _min_over(reps, lambda: replay_point(stages))
    warm = engine.point_fidelity(stages)  # populate the memo
    assert warm.exact
    hot_s = _min_over(reps, lambda: engine.point_fidelity(stages))

    payload = bench_payload(
        "fidelity_replay",
        cold_s, hot_s,
        floor=5.0,
        workload=f"{len(stages)}-stage plan on {ARRAY} "
                 f"({', '.join(l.shape_str for l in STAGES)})",
        replay={
            "cold_replay_s": round(cold_s, 6),
            "memo_hit_s": round(hot_s, 6),
            "stages_per_s": round(len(stages) / cold_s, 1),
        },
    )
    assert not validate_bench_payload(payload), \
        validate_bench_payload(payload)
    path = write_json(Path(__file__).parent / "BENCH_fidelity.json",
                      payload)
    print(f"wrote {path}")
    print(f"cold replay: {cold_s * 1000:.1f} ms  memo hit: "
          f"{hot_s * 1000:.3f} ms  speedup: {payload['speedup']}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
