"""Bench: runtime-substrate costs — store hits and fault-path overhead.

Two guards for the fault-tolerant runtime substrate
(``docs/robustness.md``):

1. **Store-hit latency.**  A warm persistent
   :class:`~repro.runtime.store.SolutionStore` must answer far faster
   than re-running Algorithm 1 — that is the entire point of mounting
   it as an L2 below the LRU memo.  Measured as an uncached serial
   engine solving the ResNet-18 + VGG-16 x all-schemes batch cold vs.
   the same engine answering the batch from a pre-populated store.

2. **Fault-path overhead.**  The breaker wrapper and its
   ``fault_point`` probes sit on the backend hot path; with no fault
   plan installed they must be near-free (one global read + ``None``
   check).  Measured as the vectorized DSE sweep on a breaker-wrapped
   numpy engine vs. a plain numpy engine, min-over-reps; the committed
   ``overhead.ratio`` must stay under ``overhead.ceiling`` (2%) — the
   regression guard re-checks it on every CI run.

Run under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_runtime.py --benchmark-only

or as a script, which times both comparisons and writes
``BENCH_runtime.json`` next to this file::

    PYTHONPATH=src python benchmarks/bench_runtime.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import BatchRequest, MappingEngine
from repro.core import PIMArray
from repro.networks import resnet18, vgg16
from repro.runtime import SolutionStore

ARRAY = PIMArray.square(512)

#: Candidate-array grid for the vectorized sweep workload (the DSE
#: bisection/Pareto hot path the breaker wrapper sits on).
SWEEP_SIDES = range(64, 1025, 8)


def full_batch() -> BatchRequest:
    """Every (scheme, layer) pair of ResNet-18 + VGG-16: the store
    workload (both zoo networks, matching ``bench_api``)."""
    schemes = tuple(MappingEngine().schemes())
    requests = []
    for network in (resnet18(), vgg16()):
        requests.extend(BatchRequest.from_network(network, ARRAY,
                                                  schemes=schemes))
    return BatchRequest.of(requests)


def serial_engine(store=None):
    """An uncached engine, so the comparison is store-vs-solver."""
    return MappingEngine(cache_size=0, store=store)


def sweep_workload(engine: MappingEngine) -> np.ndarray:
    """One vectorized network sweep across the candidate grid."""
    return engine.sweep_cycles(resnet18(),
                               [PIMArray.square(s) for s in SWEEP_SIDES])


def _min_over(reps: int, fn) -> float:
    """Min-of-N wall-clock — the noise-robust estimator for ratios."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _paired_min(reps: int, fn_a, fn_b):
    """Interleaved min-of-N for both callables.

    Alternating A/B inside one loop keeps CPU-frequency and cache
    drift common-mode; back-to-back blocks would bias a ~1 ms workload
    by far more than the 2% ceiling being measured.
    """
    best_a = best_b = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def test_store_hit_answers_without_solver_calls(benchmark, tmp_path):
    """A warm store serves the whole batch with zero solver runs."""
    batch = full_batch()
    with SolutionStore(tmp_path / "solutions.jsonl") as store:
        serial_engine(store).map_batch(batch)  # populate
        engine = serial_engine(store)
        result = benchmark(engine.map_batch, batch)
        assert all(r.cached for r in result.responses)
        assert engine.stats.store_hits >= len(batch)
        benchmark.extra_info["requests"] = len(batch)


def test_breaker_wrapper_is_near_free(benchmark):
    """Breaker-wrapped sweep: same numbers, negligible overhead."""
    plain = MappingEngine(backend="numpy")
    wrapped = MappingEngine(backend="numpy", breaker=True)
    expected = sweep_workload(plain)
    result = benchmark(sweep_workload, wrapped)
    np.testing.assert_array_equal(result, expected)
    assert wrapped.breaker is not None
    assert wrapped.breaker.snapshot()["trips"] == 0


def main() -> int:
    """Time both comparisons once and write BENCH_runtime.json."""
    from conftest import bench_payload, validate_bench_payload

    from repro.reporting import write_json

    batch = full_batch()
    reps = 7

    # -- store-hit latency vs. cold solve ------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "solutions.jsonl"
        with SolutionStore(store_path) as store:
            serial_engine(store).map_batch(batch)  # populate
            cold_s = _min_over(
                reps, lambda: serial_engine().map_batch(batch))
            hot = serial_engine(store)
            hot_s = _min_over(reps, lambda: hot.map_batch(batch))
            records = store.stats()["records"]

    # -- fault-path overhead on the vectorized sweep -------------------
    plain = MappingEngine(backend="numpy")
    wrapped = MappingEngine(backend="numpy", breaker=True)
    baseline = sweep_workload(plain)     # also builds/warms the lattice
    guarded = sweep_workload(wrapped)
    assert np.array_equal(baseline, guarded)  # bit-identical numbers
    without_s, with_s = _paired_min(25, lambda: sweep_workload(plain),
                                    lambda: sweep_workload(wrapped))

    payload = bench_payload(
        "runtime_substrate",
        cold_s, hot_s,
        floor=3.0,
        workload=f"resnet18+vgg16 x all schemes ({len(batch)} requests, "
                 f"serial); sweep over {len(list(SWEEP_SIDES))} arrays",
        store={
            "cold_solve_s": round(cold_s, 6),
            "store_hit_s": round(hot_s, 6),
            "records": records,
        },
        overhead={
            "with_s": round(with_s, 6),
            "without_s": round(without_s, 6),
            "ratio": round(with_s / without_s, 4),
            "ceiling": 1.02,
        },
    )
    # validate_bench_payload enforces speedup >= floor and the
    # overhead ratio <= ceiling.
    assert not validate_bench_payload(payload), \
        validate_bench_payload(payload)
    path = write_json(Path(__file__).parent / "BENCH_runtime.json", payload)
    print(f"wrote {path}")
    print(f"cold solve: {cold_s * 1000:.1f} ms  store hit: "
          f"{hot_s * 1000:.1f} ms  speedup: {payload['speedup']}x")
    print(f"fault-path overhead: {payload['overhead']['ratio']}x "
          f"(ceiling {payload['overhead']['ceiling']}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
