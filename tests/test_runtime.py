"""The fault-tolerant runtime substrate (`repro.runtime`).

Covers the five pillars of ``docs/robustness.md``:

* seeded deterministic fault injection (:mod:`repro.runtime.faults`),
* monotonic deadlines with best-so-far partials,
* deadline-aware retry with a transient/permanent taxonomy,
* the backend circuit breaker (bit-identical numpy demotion),
* the crash-safe persistent solution store and its engine mount.

The overarching acceptance property: under any seeded
:class:`FaultPlan`, the engine either returns canonically *identical*
results or raises a *typed* error carrying best-so-far partials —
never a wrong answer, never an untyped crash.
"""

import json
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import MappingEngine, MappingRequest
from repro.api.registry import SolverRegistry
from repro.api.response import solution_to_dict
from repro.core import ConvLayer, PIMArray
from repro.core.types import ConfigurationError
from repro.networks import resnet18
from repro.runtime import (FAULT_SITES, CircuitBreaker, Deadline,
                           DeadlineExceededError, FaultError, FaultPlan,
                           FaultSpec, PermanentError, RetryPolicy,
                           SolutionStore, StoreCorruptionError,
                           TransientError, UnknownFaultSiteError,
                           active_plan, fault_point)
from repro.runtime.breaker import CLOSED, HALF_OPEN, OPEN, BreakerBackend
from repro.search import vwsdk_solution

ARRAY = PIMArray.square(512)
LAYER = ConvLayer.square(14, 3, 256, 256)


@pytest.fixture(autouse=True)
def quiet_faults():
    """Suspend any ambient plan (the CI fault-smoke session fixture)
    while testing the substrate itself — these tests install their own
    plans and assert exact firing schedules."""
    from repro.runtime import faults
    previous = faults.install(None)
    yield
    faults.install(previous)


def request(layer=LAYER, array=ARRAY, scheme="vw-sdk"):
    return MappingRequest(layer=layer, array=array, scheme=scheme)


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_sites_self_register_at_import(self):
        for site in ("store.open", "store.read", "store.append",
                     "store.compact", "backend.finish",
                     "backend.geo_cycles"):
            assert site in FAULT_SITES

    def test_unknown_site_fails_fast_with_suggestion(self):
        with pytest.raises(UnknownFaultSiteError, match="store.append"):
            FaultPlan(seed=1, specs=(FaultSpec("store.apend"),))

    def test_duplicate_site_in_plan_rejected(self):
        with pytest.raises(ConfigurationError, match="twice"):
            FaultPlan(seed=1, specs=(FaultSpec("store.read"),
                                     FaultSpec("store.read")))

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("store.read", probability=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec("store.read", times=-1)
        with pytest.raises(ConfigurationError):
            FaultSpec("store.read", after=-2)

    def test_no_plan_is_a_no_op(self):
        assert active_plan() is None
        fault_point("store.read")  # must not raise

    def test_installed_restores_previous_plan(self):
        outer = FaultPlan(seed=1)
        inner = FaultPlan(seed=2)
        with outer.installed():
            assert active_plan() is outer
            with inner.installed():
                assert active_plan() is inner
            assert active_plan() is outer
        assert active_plan() is None

    def test_deterministic_firing_pattern_across_plans(self):
        def pattern(seed):
            plan = FaultPlan(seed=seed, specs=(
                FaultSpec("store.read", probability=0.4),))
            fired = []
            with plan.installed():
                for _ in range(64):
                    try:
                        fault_point("store.read")
                        fired.append(False)
                    except FaultError:
                        fired.append(True)
            return fired

        assert pattern(7) == pattern(7)  # replays bit-identically
        assert pattern(7) != pattern(8)  # and the seed matters
        assert any(pattern(7)) and not all(pattern(7))

    def test_seeding_uses_crc32_not_hash(self):
        # The per-site stream must be derived via CRC32 so the replay
        # survives PYTHONHASHSEED changes across processes.
        import random
        plan = FaultPlan(seed=99, specs=(
            FaultSpec("store.read", probability=0.5),))
        expected = random.Random(99 ^ zlib.crc32(b"store.read"))
        fired = []
        with plan.installed():
            for _ in range(32):
                try:
                    fault_point("store.read")
                    fired.append(False)
                except FaultError:
                    fired.append(True)
        replay = [expected.random() < 0.5 for _ in range(32)]
        assert fired == replay

    def test_times_after_and_stats(self):
        plan = FaultPlan(seed=1, specs=(
            FaultSpec("store.read", times=2, after=3),))
        outcomes = []
        with plan.installed():
            for _ in range(10):
                try:
                    fault_point("store.read")
                    outcomes.append("ok")
                except FaultError:
                    outcomes.append("boom")
        assert outcomes == ["ok"] * 3 + ["boom"] * 2 + ["ok"] * 5
        stats = plan.stats()["store.read"]
        assert stats == {"passes": 10, "fired": 2}

    def test_custom_error_factory_shapes_the_crash(self):
        plan = FaultPlan(seed=1, specs=(
            FaultSpec("store.append",
                      error=lambda s: OSError(f"EIO at {s}")),))
        with plan.installed(), pytest.raises(OSError, match="store.append"):
            fault_point("store.append")

    def test_fault_error_is_transient(self):
        assert issubclass(FaultError, TransientError)


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestDeadline:
    def test_budget_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Deadline(0.0)

    def test_check_carries_partial_and_where(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        deadline.check()  # plenty of budget
        clock.now = 6.0
        with pytest.raises(DeadlineExceededError) as err:
            deadline.check(partial={"completed": 3}, where="unit-test")
        assert err.value.partial == {"completed": 3}
        assert err.value.where == "unit-test"
        assert err.value.budget_s == 5.0

    def test_remaining_never_negative(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.now = 10.0
        assert deadline.remaining() == 0.0
        assert deadline.expired


# ----------------------------------------------------------------------
# Retry
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_delays_deterministic_and_jitter_free_exact(self):
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.01,
                             multiplier=2.0, jitter=0.0)
        assert policy.delays() == (0.01, 0.02, 0.04)
        jittered = RetryPolicy(max_attempts=4, seed=5)
        assert jittered.delays() == jittered.delays()
        assert jittered.delays() != RetryPolicy(max_attempts=4,
                                                seed=6).delays()

    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}
        slept = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientError("wobble")
            return "answer"

        policy = RetryPolicy(max_attempts=3, jitter=0.0)
        assert policy.call(flaky, sleep=slept.append) == "answer"
        assert calls["n"] == 3
        assert tuple(slept) == policy.delays()

    def test_permanent_and_configuration_never_retried(self):
        for error in (PermanentError("no"), ConfigurationError("bad")):
            calls = {"n": 0}

            def fail():
                calls["n"] += 1
                raise error

            with pytest.raises(type(error)):
                RetryPolicy(max_attempts=5).call(fail, sleep=lambda s: None)
            assert calls["n"] == 1

    def test_exhaustion_reraises_last_transient(self):
        def always():
            raise TransientError("still down")

        with pytest.raises(TransientError, match="still down"):
            RetryPolicy(max_attempts=3).call(always, sleep=lambda s: None)

    def test_deadline_caps_sleeps_and_stops_retries(self):
        clock = FakeClock()
        deadline = Deadline(0.015, clock=clock)
        slept = []

        def sleep(seconds):
            slept.append(seconds)
            clock.now += seconds

        def always():
            raise TransientError("down")

        policy = RetryPolicy(max_attempts=10, base_delay_s=0.01,
                             jitter=0.0)
        with pytest.raises(TransientError):
            policy.call(always, deadline=deadline, sleep=sleep)
        # First sleep is the full 0.01; the second is capped at the
        # remaining 0.005; then the deadline halts further attempts.
        assert slept == [0.01, pytest.approx(0.005)]

    def test_on_retry_observes_attempts(self):
        seen = []

        def flaky():
            if len(seen) < 2:
                raise TransientError("w")
            return 1

        RetryPolicy(max_attempts=3).call(
            flaky, sleep=lambda s: None,
            on_retry=lambda attempt, error: seen.append(attempt))
        assert seen == [0, 1]


def test_retry_first_try_success_builds_no_schedule(monkeypatch):
    """The engine wraps every store lookup and append in ``call``; a
    call that succeeds at once must not pay for the jitter schedule."""
    def no_schedule(self):
        raise AssertionError("delays() built on a first-try success")

    monkeypatch.setattr(RetryPolicy, "delays", no_schedule)
    assert RetryPolicy().call(lambda: "answer") == "answer"


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_state_machine_trip_cooldown_probe(self):
        breaker = CircuitBreaker(cooldown_calls=3)
        assert breaker.state == CLOSED
        assert breaker.try_primary()
        breaker.record_failure()
        assert breaker.state == OPEN
        # Cooldown: the primary is left alone for cooldown_calls calls.
        assert not breaker.try_primary()
        assert not breaker.try_primary()
        # Third call transitions to half-open and admits one probe.
        assert breaker.try_primary()
        assert breaker.state == HALF_OPEN
        assert not breaker.try_primary()  # only one concurrent probe
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.snapshot()["trips"] == 1
        assert breaker.snapshot()["probes"] == 1

    def test_failed_probe_reopens_and_counts_a_trip(self):
        breaker = CircuitBreaker(cooldown_calls=1)
        breaker.record_failure()
        assert breaker.try_primary()  # straight to half-open probe
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.snapshot()["trips"] == 2

    def test_cooldown_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(cooldown_calls=0)


class TestBreakerBackend:
    def crash_plan(self, site="backend.geo_cycles", **kw):
        return FaultPlan(seed=3, specs=(FaultSpec(site, **kw),))

    def test_engine_auto_wraps_only_optimized_backends(self):
        assert MappingEngine(backend="numpy").breaker is None
        forced = MappingEngine(backend="numpy", breaker=True)
        assert forced.breaker is not None
        assert forced.backend.name == "numpy+breaker"
        never = MappingEngine(backend="numpy", breaker=False)
        assert never.breaker is None

    def test_crash_demotes_to_fallback_with_identical_numbers(self):
        arrays = [PIMArray.square(s) for s in (128, 256, 512)]
        plain = MappingEngine(backend="numpy")
        expected = plain.sweep_cycles(resnet18(), arrays)

        wrapped = MappingEngine(backend="numpy", breaker=True)
        with self.crash_plan(times=1).installed():
            crashed = wrapped.sweep_cycles(resnet18(), arrays)
        np.testing.assert_array_equal(crashed, expected)
        snap = wrapped.breaker.snapshot()
        assert snap["trips"] == 1 and snap["fallback_calls"] >= 1
        assert wrapped.stats.breaker_trips == 1

    def test_recovery_after_cooldown_probe(self):
        breaker = CircuitBreaker(cooldown_calls=1)
        backend = BreakerBackend(MappingEngine(backend="numpy").backend,
                                 breaker=breaker)
        engine = MappingEngine(backend=backend, breaker=False)
        arrays = [PIMArray.square(256)]
        with self.crash_plan(times=1).installed():
            engine.sweep_cycles(resnet18(), arrays)   # trips
            assert breaker.state == OPEN
            engine.sweep_cycles(resnet18(), arrays)   # half-open probe, ok
        assert breaker.state == CLOSED

    def test_stats_envelope_only_when_wrapped(self):
        plain = MappingEngine(backend="numpy")
        assert "breaker" not in plain.stats.to_dict()
        wrapped = MappingEngine(backend="numpy", breaker=True)
        assert wrapped.stats.to_dict()["breaker"]["state"] == "closed"

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**16), probability=st.floats(0.0, 1.0),
           sides=st.lists(st.integers(4, 40).map(lambda s: s * 16),
                          min_size=1, max_size=4))
    def test_post_trip_results_bit_identical_property(self, seed,
                                                      probability, sides):
        """Under ANY seeded crash schedule the wrapped engine's sweep
        equals the fault-free numpy reference, bit for bit."""
        arrays = [PIMArray.square(s) for s in sides]
        expected = MappingEngine(backend="numpy").sweep_cycles(
            resnet18(), arrays)
        plan = FaultPlan(seed=seed, specs=(
            FaultSpec("backend.geo_cycles", probability=probability),
            FaultSpec("backend.finish", probability=probability),))
        wrapped = MappingEngine(backend="numpy", breaker=True,
                                breaker_cooldown=2)
        with plan.installed():
            result = wrapped.sweep_cycles(resnet18(), arrays)
        np.testing.assert_array_equal(result, expected)


# ----------------------------------------------------------------------
# Solution store
# ----------------------------------------------------------------------
class TestSolutionStore:
    def test_roundtrip_and_persistence(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with SolutionStore(path) as store:
            assert store.get("a") is None
            store.put("a", {"cycles": 504})
            store.put("b", [1, 2, 3])
            assert store.get("a") == {"cycles": 504}
            assert len(store) == 2
        with SolutionStore(path) as store:
            assert store.get("b") == [1, 2, 3]
            assert store.stats()["recovered_records"] == 2

    def test_last_writer_wins(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with SolutionStore(path) as store:
            store.put("k", 1)
            store.put("k", 2)
        with SolutionStore(path) as store:
            assert store.get("k") == 2
            assert len(store) == 1

    def test_torn_tail_truncated_on_open(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with SolutionStore(path) as store:
            store.put("a", 1)
            store.put("b", 2)
        intact = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"00000010 deadbeef {\"key\": \"c\"")  # torn
        with SolutionStore(path) as store:
            assert sorted(store.keys()) == ["a", "b"]
            assert store.stats()["truncated_bytes"] > 0
        assert path.stat().st_size == intact  # tail physically removed

    def test_mid_file_corruption_truncates_from_first_bad_frame(
            self, tmp_path):
        path = tmp_path / "s.jsonl"
        with SolutionStore(path) as store:
            for i in range(6):
                store.put(f"k{i}", i)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # bit-flip mid-file
        path.write_bytes(bytes(raw))
        with SolutionStore(path) as store:
            survivors = sorted(store.keys())
            # A prefix of the keyspace survives; each surviving value
            # is bitwise-intact.
            assert survivors == [f"k{i}" for i in range(len(survivors))]
            for key in survivors:
                assert store.get(key) == int(key[1:])

    def test_compact_reclaims_dead_records(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with SolutionStore(path) as store:
            for _ in range(10):
                store.put("hot", {"v": list(range(50))})
            before = path.stat().st_size
            reclaimed = store.compact()
            assert reclaimed > 0
            assert path.stat().st_size == before - reclaimed
            assert store.get("hot") == {"v": list(range(50))}
            store.put("post", 1)  # appends still work after the swap
        with SolutionStore(path) as store:
            assert sorted(store.keys()) == ["hot", "post"]

    def test_compact_failure_leaves_store_usable(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = SolutionStore(path)
        store.put("a", 1)
        plan = FaultPlan(seed=1, specs=(FaultSpec("store.compact"),))
        with plan.installed(), pytest.raises(FaultError):
            store.compact()
        store.put("b", 2)
        store.close()
        with SolutionStore(path) as reopened:
            assert sorted(reopened.keys()) == ["a", "b"]
        leftovers = [p for p in tmp_path.iterdir()
                     if p.suffix == ".tmp"]
        assert not leftovers  # no temp-file litter

    def test_directory_path_is_a_permanent_error(self, tmp_path):
        with pytest.raises(StoreCorruptionError, match="directory"):
            SolutionStore(tmp_path)
        assert issubclass(StoreCorruptionError, PermanentError)

    def test_closed_store_put_raises(self, tmp_path):
        store = SolutionStore(tmp_path / "s.jsonl")
        store.close()
        with pytest.raises(StoreCorruptionError, match="closed"):
            store.put("k", 1)

    def test_bad_key_rejected(self, tmp_path):
        with SolutionStore(tmp_path / "s.jsonl") as store:
            with pytest.raises(ConfigurationError):
                store.put("", 1)

    @settings(max_examples=25, deadline=None)
    @given(records=st.lists(
        st.tuples(st.text(st.characters(min_codepoint=33,
                                        max_codepoint=126),
                          min_size=1, max_size=8),
                  st.integers(-10**6, 10**6)),
        min_size=1, max_size=12),
        damage=st.integers(0, 2**31))
    def test_crash_recovery_never_serves_damaged_data(self, tmp_path_factory,
                                                      records, damage):
        """Corrupt/truncate at ANY byte offset: reopening recovers a
        clean prefix whose values are exactly what was written."""
        path = tmp_path_factory.mktemp("fuzz") / "s.jsonl"
        with SolutionStore(path) as store:
            for key, value in records:
                store.put(key, value)
        raw = bytearray(path.read_bytes())
        offset = damage % len(raw)
        if damage % 2:
            raw[offset] ^= 1 + (damage % 255)        # bit flip
            path.write_bytes(bytes(raw))
        else:
            path.write_bytes(bytes(raw[:offset]))    # torn tail
        with SolutionStore(path) as store:
            # Replay the puts: the survivors must be a prefix of the
            # append order, with last-writer-wins within that prefix.
            expected = {}
            count = store.stats()["recovered_records"]
            replayed = 0
            for key, value in records:
                if replayed == count:
                    break
                expected[key] = value
                replayed += 1
            assert replayed == count
            assert sorted(store.keys()) == sorted(expected)
            for key, value in expected.items():
                assert store.get(key) == value


# ----------------------------------------------------------------------
# Engine integration: store as L2, coalescing, deadlines, fault plans
# ----------------------------------------------------------------------
class TestEngineRuntime:
    def test_store_shared_across_engines(self, tmp_path):
        with SolutionStore(tmp_path / "s.jsonl") as store:
            writer = MappingEngine(store=store)
            cold = writer.map(request())
            assert not cold.cached

            reader = MappingEngine(store=store)
            warm = reader.map(request())
            assert warm.cached  # L2 hit, no solver run
            assert solution_to_dict(warm.solution) == \
                solution_to_dict(cold.solution)
            assert reader.stats.store_hits == 1
            assert reader.stats.store_attached

    def test_store_survives_process_restart(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with SolutionStore(path) as store:
            MappingEngine(store=store).map(request())
        with SolutionStore(path) as store:   # "new process"
            engine = MappingEngine(store=store)
            response = engine.map(request())
            assert response.cached
            assert response.solution.cycles == 504

    def test_store_write_failure_never_changes_the_answer(self, tmp_path):
        plan = FaultPlan(seed=1, specs=(
            FaultSpec("store.append",
                      error=lambda s: OSError("disk full")),))
        with SolutionStore(tmp_path / "s.jsonl") as store:
            engine = MappingEngine(store=store)
            with plan.installed():
                response = engine.map(request())
            assert response.solution.cycles == 504
            assert engine.stats.store_errors >= 1
            assert len(store) == 0  # nothing persisted, nothing wrong

    def test_store_read_failure_degrades_to_solver(self, tmp_path):
        with SolutionStore(tmp_path / "s.jsonl") as store:
            MappingEngine(store=store).map(request())
            plan = FaultPlan(seed=1, specs=(
                FaultSpec("store.read",
                          error=lambda s: OSError("io error")),))
            engine = MappingEngine(store=store)
            with plan.installed():
                response = engine.map(request())
            assert response.solution.cycles == 504
            assert engine.stats.store_errors >= 1

    def test_undecodable_record_treated_as_miss(self, tmp_path):
        with SolutionStore(tmp_path / "s.jsonl") as store:
            engine = MappingEngine(store=store)
            key = engine._key(request())
            store.put(key, {"schema": "from-the-future"})
            response = engine.map(request())
            assert response.solution.cycles == 504
            assert not response.cached  # bad record -> solved fresh

    def test_record_from_previous_model_revision_is_resolved(
            self, tmp_path, monkeypatch):
        """A store outlives code changes: a record written under an
        older model revision reads as a miss and is solved afresh.

        The record is what revision 1 answered for ResNet-18's real
        conv1 — im2col, 12,544 cycles; windows on the stride grid
        need 1,568."""
        from dataclasses import replace

        from repro.api import engine as engine_module
        from repro.search import im2col_solution
        conv1 = ConvLayer.square(224, 7, 3, 64, stride=2, padding=3)
        stale = replace(im2col_solution(conv1, ARRAY), scheme="vw-sdk")
        assert stale.cycles == 12544
        previous = engine_module.MODEL_REVISION - 1
        with SolutionStore(tmp_path / "s.jsonl") as store:
            monkeypatch.setattr(engine_module, "MODEL_REVISION", previous)
            old = MappingEngine(store=store)
            store.put(old._key(request(conv1)), solution_to_dict(stale))
            # Under the old revision the record is live...
            assert old.map(request(conv1)).solution.cycles == 12544
            monkeypatch.undo()
            # ...under the current one it is a miss, re-solved.
            engine = MappingEngine(store=store)
            response = engine.map(request(conv1))
            assert not response.cached
            assert response.solution.cycles == 1568
            assert len(store) == 2  # the fresh answer, under a new key

    def test_lost_tail_resolved_bit_identically(self, tmp_path):
        """The acceptance property end-to-end: corrupt the store, and
        the damaged tail is simply re-solved with identical results."""
        path = tmp_path / "s.jsonl"
        layers = [ConvLayer.square(14, 3, 256, 256),
                  ConvLayer.square(28, 3, 128, 128),
                  ConvLayer.square(56, 3, 64, 64)]
        with SolutionStore(path) as store:
            engine = MappingEngine(store=store)
            originals = [solution_to_dict(engine.map(request(l)).solution)
                         for l in layers]
        raw = path.read_bytes()
        path.write_bytes(raw[:int(len(raw) * 0.6)])  # lose the tail
        with SolutionStore(path) as store:
            engine = MappingEngine(store=store)
            recovered = [solution_to_dict(engine.map(request(l)).solution)
                         for l in layers]
        assert recovered == originals

    def test_inflight_coalescing_shares_one_solve(self):
        registry = SolverRegistry()
        entered = threading.Event()
        release = threading.Event()
        calls = []

        def slow_solver(layer, array):
            calls.append(1)
            entered.set()
            release.wait(timeout=5.0)
            return vwsdk_solution(layer, array)

        registry.register("slow", slow_solver, summary="test")
        engine = MappingEngine(registry=registry)
        results = []

        def work():
            results.append(engine.map(request(scheme="slow")))

        leader = threading.Thread(target=work)
        leader.start()
        assert entered.wait(timeout=5.0)
        followers = [threading.Thread(target=work) for _ in range(3)]
        for t in followers:
            t.start()
        release.set()
        leader.join(timeout=5.0)
        for t in followers:
            t.join(timeout=5.0)
        assert len(calls) == 1  # one solver run answered all four
        cycles = {r.solution.cycles for r in results}
        assert len(cycles) == 1
        assert engine.stats.coalesced >= 1

    def test_uncached_engine_skips_coalescing(self):
        engine = MappingEngine(cache_size=0)
        engine.map(request())
        assert engine.stats.coalesced == 0
        # Zero coalesces keep the JSON envelope byte-identical to the
        # pre-runtime-substrate schema.
        assert "coalesced" not in engine.stats.to_dict()

    def test_sweep_deadline_carries_partial(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        engine = MappingEngine(backend="numpy")
        arrays = [PIMArray.square(s) for s in range(64, 1025, 8)]
        clock.now = 2.0  # expire before the first chunk
        with pytest.raises(DeadlineExceededError) as err:
            engine.sweep_cycles(resnet18(), arrays, deadline=deadline)
        partial = err.value.partial
        assert partial["total"] == len(arrays)
        assert 0 <= partial["completed"] < len(arrays)

    def test_chip_sweep_deadline_carries_partial(self):
        clock = FakeClock()
        engine = MappingEngine(backend="numpy")
        counts = list(range(23, 23 + 5000))
        deadline = Deadline(1.0, clock=clock)
        clock.now = 2.0
        with pytest.raises(DeadlineExceededError) as err:
            engine.chip_sweep(resnet18(), ARRAY, counts, deadline=deadline)
        assert err.value.partial["total"] == len(counts)

    def test_chip_sweep_chunked_equals_single_block(self):
        engine = MappingEngine(backend="numpy")
        counts = list(range(23, 23 + 5000))  # > SWEEP_CHUNK forces chunks
        sweep = engine.chip_sweep(resnet18(), ARRAY, counts)
        single = engine.chip_sweep(resnet18(), ARRAY, counts[:100])
        np.testing.assert_array_equal(sweep.bottleneck_cycles[:100],
                                      single.bottleneck_cycles)

    def test_stats_envelope_roundtrips_runtime_fields(self, tmp_path):
        from repro.api.response import CacheSnapshot
        with SolutionStore(tmp_path / "s.jsonl") as store:
            engine = MappingEngine(store=store, breaker=True,
                                   backend="numpy")
            engine.map(request())
            snap = engine.stats
            parsed = CacheSnapshot.from_dict(
                json.loads(json.dumps(snap.to_dict())))
            assert parsed.store_attached
            assert parsed.breaker_state == "closed"
            assert parsed.store_hits == snap.store_hits


# ----------------------------------------------------------------------
# The acceptance property: canonical identity or typed error, per plan
# ----------------------------------------------------------------------
SMOKE_PLANS = [
    FaultPlan(seed=11, specs=(
        FaultSpec("store.append", probability=0.5,
                  error=lambda s: OSError("EIO")),)),
    FaultPlan(seed=22, specs=(
        FaultSpec("store.read", probability=0.5,
                  error=lambda s: OSError("EIO")),)),
    FaultPlan(seed=33, specs=(
        FaultSpec("backend.geo_cycles", probability=0.5),
        FaultSpec("backend.finish", probability=0.5),)),
    FaultPlan(seed=44, specs=(
        FaultSpec("store.append", probability=0.3,
                  error=lambda s: OSError("EIO")),
        FaultSpec("store.read", probability=0.3,
                  error=lambda s: OSError("EIO")),
        FaultSpec("backend.geo_cycles", probability=0.3),)),
]


@pytest.mark.parametrize("plan", SMOKE_PLANS,
                         ids=[f"seed{p.seed}" for p in SMOKE_PLANS])
def test_engine_canonical_under_every_fault_plan(plan, tmp_path):
    reference_engine = MappingEngine(backend="numpy")
    layers = [ConvLayer.square(14, 3, 256, 256),
              ConvLayer.square(28, 3, 128, 128)]
    arrays = [PIMArray.square(s) for s in (256, 512)]
    want_solutions = [solution_to_dict(
        reference_engine.map(request(l)).solution) for l in layers]
    want_sweep = reference_engine.sweep_cycles(resnet18(), arrays)

    with SolutionStore(tmp_path / "s.jsonl") as store:
        engine = MappingEngine(backend="numpy", breaker=True, store=store)
        with plan.installed():
            got_solutions = [solution_to_dict(
                engine.map(request(l)).solution) for l in layers]
            got_sweep = engine.sweep_cycles(resnet18(), arrays)
    assert got_solutions == want_solutions
    np.testing.assert_array_equal(got_sweep, want_sweep)


class TestStoreMultiProcess:
    """Regression: the JSONL store is now safe for a *fleet* — many
    processes appending and compacting one file concurrently, guarded
    by an advisory ``flock`` on a stable sidecar lock file.

    Before the fix, a sibling's ``compact()`` (rewrite + ``os.replace``)
    could orphan another process's append handle or scan a half-written
    frame as a torn tail and truncate it away.
    """

    WRITER = """
import sys

sys.path.insert(0, sys.argv[4])
from repro.runtime import SolutionStore

path, worker, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
with SolutionStore(path) as store:
    for i in range(count):
        store.put("w%d-k%d" % (worker, i), {"worker": worker, "i": i})
        if i % 13 == 5:
            store.compact()
"""

    def test_parallel_writers_with_concurrent_compaction(self, tmp_path):
        import subprocess
        import sys as _sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        path = tmp_path / "fleet.jsonl"
        script = tmp_path / "writer.py"
        script.write_text(self.WRITER)
        workers, count = 4, 40
        procs = [subprocess.Popen([_sys.executable, str(script), str(path),
                                   str(worker), str(count), src])
                 for worker in range(workers)]
        for proc in procs:
            assert proc.wait(timeout=240) == 0
        with SolutionStore(path) as store:
            stats = store.stats()
            assert stats["truncated_bytes"] == 0   # no frame ever torn
            assert len(store) == workers * count   # every key survived
            for worker in range(workers):
                for i in range(count):
                    assert store.get(f"w{worker}-k{i}") == \
                        {"worker": worker, "i": i}

    def test_foreign_appends_survive_local_compaction(self, tmp_path):
        """Two handles on one file: B's records must survive A's
        compact even though A never `put` them."""
        path = tmp_path / "shared.jsonl"
        with SolutionStore(path) as a, SolutionStore(path) as b:
            a.put("from-a", 1)
            b.put("from-b", 2)
            a.compact()            # must carry b's record forward
            b.put("from-b2", 3)    # b's handle survives the replace
        with SolutionStore(path) as store:
            assert store.get("from-a") == 1
            assert store.get("from-b") == 2
            assert store.get("from-b2") == 3
