"""Tests for the unified mapping API: registry, engine, envelopes."""

import json

import pytest

from repro.api import (
    BatchRequest,
    BatchResult,
    DEFAULT_REGISTRY,
    DuplicateSchemeError,
    MappingEngine,
    MappingRequest,
    MappingResponse,
    SolverRegistry,
    UnknownSchemeError,
    default_engine,
)
from repro.core import ConvLayer, PIMArray
from repro.networks import resnet18, vgg16
from repro.search import im2col_solution, solve

ARRAY = PIMArray.square(512)
RESNET_L4 = ConvLayer.square(14, 3, 256, 256)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(DEFAULT_REGISTRY.names()) == {"im2col", "smd", "sdk",
                                                 "vw-sdk"}

    def test_names_are_stable_and_complete(self):
        # Registration order follows module import order; the set is
        # what matters for dispatch.
        assert len(DEFAULT_REGISTRY.names()) == 4
        for name in DEFAULT_REGISTRY.names():
            assert callable(DEFAULT_REGISTRY.solver(name))

    def test_unknown_scheme_lists_known(self):
        with pytest.raises(UnknownSchemeError, match="unknown scheme"):
            DEFAULT_REGISTRY.get("magic")

    def test_unknown_scheme_did_you_mean(self):
        with pytest.raises(UnknownSchemeError,
                           match="did you mean 'vw-sdk'"):
            DEFAULT_REGISTRY.get("vw-skd")

    def test_unknown_scheme_is_value_error(self):
        # Legacy callers catch ValueError.
        with pytest.raises(ValueError):
            DEFAULT_REGISTRY.solver("nope")

    def test_duplicate_registration_rejected(self):
        registry = SolverRegistry()
        registry.register("x", im2col_solution)
        with pytest.raises(DuplicateSchemeError, match="already registered"):
            registry.register("x", im2col_solution)

    def test_duplicate_with_replace_allowed(self):
        registry = SolverRegistry()
        registry.register("x", im2col_solution)
        registry.register("x", im2col_solution, replace=True,
                          summary="second")
        assert registry.get("x").summary == "second"

    def test_decorator_registers(self):
        registry = SolverRegistry()

        @registry.register_scheme("mine", capabilities=("search",))
        def mine(layer, array):
            """My scheme."""
            return im2col_solution(layer, array)

        info = registry.get("mine")
        assert info.solver is mine
        assert info.capabilities == frozenset({"search"})
        assert info.summary == "My scheme."

    def test_capability_filter(self):
        assert "vw-sdk" in DEFAULT_REGISTRY.names("search")
        assert "im2col" not in DEFAULT_REGISTRY.names("search")
        assert "im2col" in DEFAULT_REGISTRY.names("baseline")

    def test_rejects_non_callable(self):
        with pytest.raises(ValueError, match="callable"):
            SolverRegistry().register("bad", 42)

    def test_replaced_solver_invalidates_engine_memo(self):
        # Re-registering a scheme's solver must not serve solutions the
        # old solver computed (registry versioning feeds the memo key).
        from dataclasses import replace as dc_replace
        from repro.search import smd_solution

        registry = SolverRegistry()
        registry.register("mine", im2col_solution)
        engine = MappingEngine(registry=registry)
        first = engine.solve(RESNET_L4, ARRAY, "mine")
        assert first.scheme == "im2col"

        def rebranded(layer, array):
            return dc_replace(smd_solution(layer, array), scheme="mine-v2")

        registry.register("mine", rebranded, replace=True)
        second = engine.solve(RESNET_L4, ARRAY, "mine")
        assert second.scheme == "mine-v2"
        # And the new solver's result is itself memoized.
        assert engine.solve(RESNET_L4, ARRAY, "mine").scheme == "mine-v2"
        assert engine.stats.misses == 2
        assert engine.stats.hits == 1


class TestRequests:
    def test_cache_key_ignores_presentation_metadata(self):
        a = MappingRequest(RESNET_L4, ARRAY, "vw-sdk")
        b = MappingRequest(RESNET_L4.with_name("conv4_2").with_repeats(2),
                           ARRAY, "vw-sdk", tag="other")
        assert a.cache_key == b.cache_key

    def test_cache_key_sees_geometry_and_scheme(self):
        base = MappingRequest(RESNET_L4, ARRAY, "vw-sdk")
        assert base.cache_key != MappingRequest(
            RESNET_L4, ARRAY, "im2col").cache_key
        assert base.cache_key != MappingRequest(
            RESNET_L4, PIMArray.square(256), "vw-sdk").cache_key
        assert base.cache_key != MappingRequest(
            ConvLayer.square(28, 3, 256, 256), ARRAY, "vw-sdk").cache_key

    def test_request_round_trip(self):
        req = MappingRequest(RESNET_L4.with_name("conv4"), ARRAY, "sdk",
                             tag="t1")
        again = MappingRequest.from_dict(
            json.loads(json.dumps(req.to_dict())))
        assert again == req
        assert again.layer.name == "conv4"

    def test_batch_from_network(self):
        batch = BatchRequest.from_network(resnet18(), ARRAY,
                                          schemes=("im2col", "vw-sdk"))
        assert len(batch) == 2 * len(resnet18())
        assert batch[0].scheme == "im2col"
        assert batch[-1].scheme == "vw-sdk"

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            BatchRequest(requests=())


class TestEngineCache:
    def test_hit_miss_accounting(self):
        engine = MappingEngine()
        engine.solve(RESNET_L4, ARRAY, "vw-sdk")
        assert (engine.stats.hits, engine.stats.misses) == (0, 1)
        engine.solve(RESNET_L4, ARRAY, "vw-sdk")
        assert (engine.stats.hits, engine.stats.misses) == (1, 1)
        engine.solve(RESNET_L4, ARRAY, "im2col")   # different scheme
        assert (engine.stats.hits, engine.stats.misses) == (1, 2)
        assert engine.stats.solver_calls == 2

    def test_hit_rebinds_layer_metadata(self):
        engine = MappingEngine()
        engine.solve(RESNET_L4.with_name("conv4_1"), ARRAY, "vw-sdk")
        sol = engine.solve(RESNET_L4.with_name("conv4_2").with_repeats(3),
                           ARRAY, "vw-sdk")
        assert engine.stats.hits == 1
        assert sol.layer.name == "conv4_2"
        assert sol.layer.repeats == 3

    def test_cache_clear(self):
        engine = MappingEngine()
        engine.solve(RESNET_L4, ARRAY, "vw-sdk")
        assert engine.cache_len == 1
        engine.cache_clear()
        assert engine.cache_len == 0
        engine.solve(RESNET_L4, ARRAY, "vw-sdk")
        assert engine.stats.misses == 2

    def test_cache_disabled(self):
        engine = MappingEngine(cache_size=0)
        engine.solve(RESNET_L4, ARRAY, "vw-sdk")
        engine.solve(RESNET_L4, ARRAY, "vw-sdk")
        assert engine.stats.hits == 0
        assert engine.stats.misses == 2

    def test_lru_eviction(self):
        engine = MappingEngine(cache_size=2)
        layers = [ConvLayer.square(ifm, 3, 8, 8) for ifm in (8, 9, 10)]
        for layer in layers:
            engine.solve(layer, ARRAY, "im2col")
        assert engine.cache_len == 2
        assert engine.stats.evictions == 1
        engine.solve(layers[0], ARRAY, "im2col")   # evicted -> miss
        assert engine.stats.misses == 4

    def test_unknown_scheme(self):
        engine = MappingEngine()
        with pytest.raises(ValueError, match="unknown scheme"):
            engine.solve(RESNET_L4, ARRAY, "magic")


class TestEngineCorrectness:
    """The engine must reproduce the paper's Table I numbers exactly."""

    def test_resnet_conv4x_paper_row(self):
        engine = MappingEngine()
        sol = engine.solve(RESNET_L4, ARRAY, "vw-sdk")
        assert str(sol.window) == "4x3"
        assert sol.cycles == 504

    @pytest.mark.parametrize("scheme", ["im2col", "smd", "sdk", "vw-sdk"])
    def test_matches_direct_solver_for_all_schemes(self, scheme):
        engine = MappingEngine()
        direct = DEFAULT_REGISTRY.solver(scheme)(RESNET_L4, ARRAY)
        via_engine = engine.solve(RESNET_L4, ARRAY, scheme)
        assert via_engine == direct
        # And again from cache:
        assert engine.solve(RESNET_L4, ARRAY, scheme) == direct

    def test_legacy_solve_routes_through_shared_engine(self):
        before = default_engine().stats
        solve(ConvLayer.square(14, 3, 256, 256), ARRAY, "vw-sdk")
        solve(ConvLayer.square(14, 3, 256, 256), ARRAY, "vw-sdk")
        after = default_engine().stats
        assert after.requests - before.requests == 2
        assert after.hits > before.hits   # at least the second was a hit


class TestBatch:
    def test_preserves_request_order(self):
        layers = list(resnet18())
        requests = [MappingRequest(layer, ARRAY, scheme)
                    for layer in reversed(layers)
                    for scheme in ("vw-sdk", "im2col")]
        result = MappingEngine().map_batch(requests)
        assert len(result) == len(requests)
        for request, response in zip(requests, result):
            assert response.request == request
            assert response.solution.scheme == request.scheme
            assert response.solution.layer == request.layer

    def test_intra_batch_duplicates_solved_once(self):
        engine = MappingEngine()
        requests = [MappingRequest(RESNET_L4, ARRAY, "vw-sdk")] * 4
        result = engine.map_batch(requests)
        assert result.stats.misses == 1
        assert result.stats.hits == 3
        assert [resp.cached for resp in result] == [False, True, True, True]
        assert len({resp.cycles for resp in result}) == 1

    def test_engine_counts_one_lookup_per_distinct_key(self):
        engine = MappingEngine()
        result = engine.map_batch(
            [MappingRequest(RESNET_L4, ARRAY, "vw-sdk")] * 4)
        assert (engine.stats.hits, engine.stats.misses) == (0, 1)
        assert (result.stats.hits, result.stats.misses) == (3, 1)

    def test_store_hit_counts_alike_through_map_and_map_batch(self, tmp_path):
        from repro.runtime import SolutionStore
        request = MappingRequest(RESNET_L4, ARRAY, "vw-sdk")
        with SolutionStore(tmp_path / "l2.jsonl") as store:
            MappingEngine(store=store).map(request)   # persist it
            via_map = MappingEngine(store=store)
            via_batch = MappingEngine(store=store)
            assert via_map.map(request).cached
            assert via_batch.map_batch([request]).responses[0].cached
        assert [(engine.stats.hits, engine.stats.misses)
                for engine in (via_map, via_batch)] == [(0, 1), (0, 1)]

    def test_cached_rerun_uses_strictly_fewer_solver_calls(self):
        # Acceptance criterion: a re-map of resnet18 + vgg16 across all
        # schemes must invoke strictly fewer solvers than the uncached
        # run, verified via engine cache statistics.
        engine = MappingEngine()
        schemes = tuple(engine.schemes())
        requests = []
        for network in (resnet18(), vgg16()):
            requests.extend(BatchRequest.from_network(network, ARRAY,
                                                      schemes=schemes))
        cold = engine.map_batch(requests)
        warm = engine.map_batch(requests)
        assert cold.stats.solver_calls > 0
        assert warm.stats.solver_calls < cold.stats.solver_calls
        assert warm.stats.solver_calls == 0
        assert warm.stats.hits == len(requests)
        # Identical solutions either way, in order.
        assert [r.cycles for r in warm] == [r.cycles for r in cold]

    def test_batch_accepts_batchrequest_and_workers(self):
        batch = BatchRequest.from_network(resnet18(), ARRAY,
                                          schemes=("vw-sdk",))
        result = MappingEngine().map_batch(batch)
        oracle = MappingEngine()
        assert [r.cycles for r in result] == [
            oracle.map(request).solution.cycles for request in batch]

    def test_batch_unknown_scheme_fails_before_solving(self):
        engine = MappingEngine()
        requests = [MappingRequest(RESNET_L4, ARRAY, "vw-sdk"),
                    MappingRequest(RESNET_L4, ARRAY, "magic")]
        with pytest.raises(ValueError, match="unknown scheme"):
            engine.map_batch(requests)
        assert engine.stats.solver_calls == 0

    def test_batch_survives_mid_batch_eviction(self):
        # A tiny cache: the batch's own inserts evict the pre-cached
        # entry before the response loop reads it back; the engine must
        # re-solve, not crash.
        engine = MappingEngine(cache_size=2)
        pre = ConvLayer.square(8, 3, 4, 4)
        engine.solve(pre, ARRAY, "im2col")
        layers = [pre] + [ConvLayer.square(ifm, 3, 4, 4)
                          for ifm in (9, 10, 11)]
        result = engine.map_batch(
            [MappingRequest(layer, ARRAY, "im2col") for layer in layers])
        assert [r.solution.layer for r in result] == layers
        assert all(r.cycles > 0 for r in result)

    def test_network_totals_via_batch(self):
        result = MappingEngine().map_batch(
            BatchRequest.from_network(resnet18(), ARRAY,
                                      schemes=("vw-sdk",)))
        assert result.total_cycles == 4294   # paper Table I total


class TestEnvelopes:
    def test_mapping_response_json_round_trip(self):
        engine = MappingEngine()
        response = engine.map(MappingRequest(
            RESNET_L4.with_name("conv4_x"), ARRAY, "vw-sdk", tag="req-7"))
        again = MappingResponse.from_json(response.to_json())
        assert again.request == response.request
        assert again.solution == response.solution
        assert again.cached == response.cached
        assert again.cycles == 504
        assert str(again.solution.window) == "4x3"

    def test_batch_result_json_round_trip(self):
        engine = MappingEngine()
        result = engine.map_batch(BatchRequest.from_network(
            resnet18(), ARRAY, schemes=("im2col", "vw-sdk")))
        again = BatchResult.from_json(result.to_json())
        assert len(again) == len(result)
        assert again.total_cycles == result.total_cycles
        assert again.stats.misses == result.stats.misses
        assert [r.request for r in again] == [r.request for r in result]

    def test_envelope_is_plain_json(self):
        response = MappingEngine().map(
            MappingRequest(RESNET_L4, ARRAY, "vw-sdk"))
        payload = json.loads(response.to_json())
        assert payload["solution"]["cycles"] == 504
        assert payload["solution"]["table_cell"].startswith("4x3")
        assert payload["cache"]["hit"] is False

    def test_envelope_layer_dict_matches_network_file_format(self):
        # One wire format for layers everywhere: a layer dict from an
        # API envelope is a valid `vwsdk network --file` layer entry.
        from repro.networks.io import network_from_dict
        response = MappingEngine().map(MappingRequest(
            RESNET_L4.with_name("conv4"), ARRAY, "vw-sdk"))
        entry = json.loads(response.to_json())["request"]["layer"]
        net = network_from_dict({"name": "rt", "layers": [entry]})
        assert net[0] == RESNET_L4
        assert net[0].name == "conv4"

    def test_by_scheme_grouping(self):
        result = MappingEngine().map_batch(BatchRequest.from_network(
            resnet18(), ARRAY, schemes=("im2col", "vw-sdk")))
        grouped = result.by_scheme()
        assert set(grouped) == {"im2col", "vw-sdk"}
        assert len(grouped["vw-sdk"]) == len(resnet18())


class TestConsumersShareEngine:
    def test_map_network_accepts_engine(self):
        from repro.networks import map_network
        engine = MappingEngine()
        report = map_network(resnet18(), ARRAY, "vw-sdk", engine=engine)
        assert report.total_cycles == 4294
        assert engine.stats.misses == len(resnet18())
        map_network(resnet18(), ARRAY, "vw-sdk", engine=engine)
        assert engine.stats.misses == len(resnet18())   # all cached now

    def test_plan_pipeline_accepts_engine(self):
        from repro.chip import ChipConfig, plan_pipeline
        engine = MappingEngine()
        chip = ChipConfig(ARRAY, 64)
        plan_pipeline(resnet18(), chip, "vw-sdk", engine=engine)
        first = engine.stats.solver_calls
        plan_pipeline(resnet18(), chip, "vw-sdk", engine=engine)
        assert engine.stats.solver_calls == first


class TestSweepScratch:
    """A warm engine sweep keeps nothing once it returns: scratch lives
    only inside the chunk loops that compute with it."""

    def test_warm_sweeps_leave_no_traced_memory(self):
        import tracemalloc

        from repro.dse.pareto import array_candidates

        # numpy is the backend that builds (arrays, cells) planes; a
        # numba backend's first call would also trace its JIT caches.
        engine = MappingEngine(backend="numpy")
        net = vgg16()
        arrays = array_candidates(1024 * 1024)
        engine.network_sweep(net)
        lattice = engine.chip_lattice(net, ARRAY)
        counts = range(lattice.floor_arrays,
                       lattice.floor_arrays + 8192)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            engine.sweep_cycles(net, arrays)
            engine.chip_sweep(net, ARRAY, counts)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 256 * 1024


class TestCoalescingDeadline:
    """Regression: a follower must never outwait its own deadline
    blocked behind a slow leader's in-flight solve."""

    @staticmethod
    def _slow_registry():
        """A registry whose scheme blocks its FIRST caller on a gate;
        later callers answer instantly (the solo-solve path)."""
        import threading

        registry = SolverRegistry()
        gate = threading.Event()
        leader_started = threading.Event()
        calls = []
        lock = threading.Lock()

        @registry.register_scheme("slowpoke")
        def slowpoke_solution(layer, array):
            """vw-sdk behind a one-shot gate."""
            with lock:
                calls.append(threading.get_ident())
                first = len(calls) == 1
            if first:
                leader_started.set()
                gate.wait(30.0)
            return solve(layer, array, "vw-sdk")

        return registry, gate, leader_started, calls

    def test_follower_deadline_expires_with_typed_error(self):
        import threading

        from repro.runtime import Deadline, DeadlineExceededError

        registry, gate, leader_started, _calls = self._slow_registry()
        engine = MappingEngine(registry=registry)
        request = MappingRequest(layer=RESNET_L4, array=ARRAY,
                                 scheme="slowpoke")
        leader_response = []
        leader = threading.Thread(
            target=lambda: leader_response.append(engine.map(request)))
        leader.start()
        try:
            assert leader_started.wait(30.0)
            with pytest.raises(DeadlineExceededError) as excinfo:
                engine.map(request, deadline=Deadline(0.05))
            assert excinfo.value.where == "engine.coalesce"
            assert "coalesced_behind" in excinfo.value.partial
        finally:
            gate.set()
            leader.join(30.0)
        # The leader was never disturbed by the follower's expiry.
        assert leader_response[0].solution.cycles == \
            solve(RESNET_L4, ARRAY, "vw-sdk").cycles

    def test_follower_clock_race_falls_back_to_solo_solve(self):
        import threading

        from repro.runtime import Deadline

        registry, gate, leader_started, calls = self._slow_registry()
        engine = MappingEngine(registry=registry)
        request = MappingRequest(layer=RESNET_L4, array=ARRAY,
                                 scheme="slowpoke")
        leader = threading.Thread(target=lambda: engine.map(request))
        leader.start()
        try:
            assert leader_started.wait(30.0)
            # A frozen clock: `event.wait(remaining)` times out while
            # the deadline itself never expires — the race between the
            # wall clock the Event sees and the monotonic budget.  The
            # follower must solo-solve rather than re-queue.
            frozen = Deadline(0.05, clock=lambda: 0.0)
            response = engine.map(request, deadline=frozen)
            assert response.cached is False
            assert len(calls) == 2       # leader + solo follower
            assert response.solution.cycles == \
                solve(RESNET_L4, ARRAY, "vw-sdk").cycles
        finally:
            gate.set()
            leader.join(30.0)
