"""Unit tests for chip-level allocation and pipelining."""

import numpy as np
import pytest

from repro import ChipConfig, ConvLayer, CostParams, PIMArray, cost_report
from repro.chip import (
    ChipLattice,
    InsufficientArraysError,
    allocate_layer,
    chip_lattice,
    plan_pipeline,
    residency_arrays,
)
from repro.chip.sweep import _stage_staircase
from repro.core import ConfigurationError
from repro.networks import resnet18, vgg13
from repro.search import solve


@pytest.fixture(scope="module")
def conv4_solution():
    # 72 PW positions x 7 AR x 1 AC tiles.
    return solve(ConvLayer.square(14, 3, 256, 256), PIMArray.square(512),
                 "vw-sdk")


class TestChipConfig:
    def test_total_cells(self):
        chip = ChipConfig(PIMArray.square(512), 4)
        assert chip.total_cells == 4 * 512 * 512

    def test_positive_count_required(self):
        with pytest.raises(Exception):
            ChipConfig(PIMArray.square(512), 0)

    def test_str(self):
        assert str(ChipConfig(PIMArray(512, 256), 8)) == "8x(512x256)"


class TestLayerAllocation:
    def test_residency_minimum(self, conv4_solution):
        assert residency_arrays(conv4_solution) == 7

    def test_resident_latency_is_npw(self, conv4_solution):
        alloc = allocate_layer(conv4_solution, 7)
        assert alloc.resident
        assert alloc.latency_cycles == 72
        assert alloc.reprogram_events == 0

    def test_replication_halves_latency(self, conv4_solution):
        alloc = allocate_layer(conv4_solution, 14)
        assert alloc.replicas == 2
        assert alloc.latency_cycles == 36

    def test_partial_extra_arrays_do_not_help(self, conv4_solution):
        # 13 arrays = 1 full replica + 6 spare: latency unchanged.
        alloc = allocate_layer(conv4_solution, 13)
        assert alloc.replicas == 1
        assert alloc.latency_cycles == 72

    def test_non_resident_multiplexing(self, conv4_solution):
        alloc = allocate_layer(conv4_solution, 2)
        assert not alloc.resident
        assert alloc.latency_cycles == 72 * 4   # ceil(7/2) rounds
        assert alloc.reprogram_events == 7

    def test_single_array_matches_paper_model(self, conv4_solution):
        # One array, time-multiplexed: exactly the paper's 504 cycles.
        alloc = allocate_layer(conv4_solution, 1)
        assert alloc.latency_cycles == conv4_solution.cycles

    def test_utilized_arrays(self, conv4_solution):
        assert allocate_layer(conv4_solution, 15).utilized_arrays == 14


class TestPipeline:
    def test_resnet_on_64_arrays(self):
        chip = ChipConfig(PIMArray.square(512), 64)
        plan = plan_pipeline(resnet18(), chip, "vw-sdk")
        assert plan.arrays_used <= 64
        assert plan.bottleneck_cycles <= 1431   # at worst stage 1 resident
        assert len(plan.allocations) == 5

    def test_insufficient_arrays_raises(self):
        chip = ChipConfig(PIMArray.square(512), 4)
        with pytest.raises(InsufficientArraysError):
            plan_pipeline(vgg13(), chip, "im2col")

    def test_vw_beats_im2col_at_chip_level(self):
        chip = ChipConfig(PIMArray.square(512), 64)
        vw = plan_pipeline(resnet18(), chip, "vw-sdk")
        im = plan_pipeline(resnet18(), chip, "im2col")
        assert vw.speedup_over(im) > 1.0

    def test_more_arrays_never_slower(self):
        for count in (40, 64, 128, 256):
            chip_small = ChipConfig(PIMArray.square(512), count)
            chip_big = ChipConfig(PIMArray.square(512), count * 2)
            small = plan_pipeline(resnet18(), chip_small).bottleneck_cycles
            big = plan_pipeline(resnet18(), chip_big).bottleneck_cycles
            assert big <= small

    def test_greedy_matches_bruteforce_small(self):
        # Two-layer toy network: check the greedy min-max is optimal.
        from itertools import product
        from repro.networks import Network
        net = Network.from_layers("toy", [
            ConvLayer.square(10, 3, 12, 8),
            ConvLayer.square(8, 3, 16, 8),
        ])
        array = PIMArray(64, 32)
        budget = 9
        plan = plan_pipeline(net, ChipConfig(array, budget))
        sols = [solve(layer, array, "vw-sdk") for layer in net]
        mins = [residency_arrays(s) for s in sols]
        best = None
        for a0, a1 in product(range(mins[0], budget + 1),
                              range(mins[1], budget + 1)):
            if a0 + a1 > budget:
                continue
            lat = max(allocate_layer(sols[0], a0).latency_cycles,
                      allocate_layer(sols[1], a1).latency_cycles)
            best = lat if best is None else min(best, lat)
        assert plan.bottleneck_cycles == best

    def test_fill_latency_at_least_bottleneck(self):
        chip = ChipConfig(PIMArray.square(512), 64)
        plan = plan_pipeline(resnet18(), chip)
        assert plan.fill_latency_cycles >= plan.bottleneck_cycles

    def test_rows_report(self):
        chip = ChipConfig(PIMArray.square(512), 64)
        rows = plan_pipeline(resnet18(), chip).rows()
        assert len(rows) == 5
        assert all(r["arrays"] >= r["tiles"] for r in rows)

    def test_repeats_raise_bottleneck(self):
        # A repeated block must hold `repeats` weight copies, so each
        # stage copy gets fewer replicas and the bottleneck grows.
        from repro.networks import Network
        single = Network.from_layers("s", [ConvLayer.square(10, 3, 12, 8)])
        repeated = Network.from_layers(
            "r", [ConvLayer.square(10, 3, 12, 8, repeats=3)])
        array = PIMArray(64, 32)
        chip = ChipConfig(array, 30)
        assert (plan_pipeline(repeated, chip).bottleneck_cycles
                >= plan_pipeline(single, chip).bottleneck_cycles)
        # And the replication step honours the repeat multiplier: the
        # per-stage arrays stay divisible by the tile count.
        plan = plan_pipeline(repeated, chip)
        alloc = plan.allocations[0]
        assert alloc.arrays % 3 == 0        # tiles = 3
        assert plan.arrays_used == alloc.arrays * 3  # repeats = 3

    def test_throughput_metric(self):
        chip = ChipConfig(PIMArray.square(512), 64)
        plan = plan_pipeline(resnet18(), chip)
        assert plan.throughput_per_kcycle == pytest.approx(
            1000 / plan.bottleneck_cycles)


ARRAY = PIMArray.square(512)


class TestChipLattice:
    @pytest.fixture(scope="class")
    def lattice(self):
        return ChipLattice.for_network(resnet18(), ARRAY)

    def test_floor_matches_residency_minimum(self, lattice):
        sols = [solve(layer, ARRAY, "vw-sdk") for layer in resnet18()]
        floor = sum(residency_arrays(s) * s.layer.repeats for s in sols)
        assert lattice.floor_arrays == floor

    def test_outcome_matches_greedy(self, lattice):
        for count in (23, 24, 31, 64, 100, 1000, 1 << 16):
            plan = plan_pipeline(resnet18(), ChipConfig(ARRAY, count))
            point = lattice.outcome(count)
            assert point.bottleneck_cycles == plan.bottleneck_cycles
            assert point.fill_latency_cycles == plan.fill_latency_cycles
            assert point.arrays_used == plan.arrays_used

    def test_sweep_matches_scalar_path(self, lattice):
        counts = list(range(1, 200, 7)) + [1 << 12]
        sweep = lattice.sweep(counts)
        for index, count in enumerate(counts):
            assert sweep.outcome(index) == lattice.outcome(count)

    def test_infeasible_below_floor(self, lattice):
        assert lattice.outcome(lattice.floor_arrays - 1) is None
        assert lattice.bottleneck_at(1) is None
        sweep = lattice.sweep([lattice.floor_arrays - 1])
        assert not sweep.feasible[0]
        assert sweep.outcome(0) is None
        assert sweep.rows()[0]["bottleneck"] == "-"

    def test_saturated_budget_reaches_latency_one(self, lattice):
        # With effectively unlimited arrays every stage replicates
        # until one parallel-window position per stage remains.
        point = lattice.outcome(1 << 20)
        assert point.bottleneck_cycles == 1
        assert point.fill_latency_cycles == lattice.num_stages

    def test_arrays_used_never_exceeds_budget(self, lattice):
        sweep = lattice.sweep(range(23, 400))
        assert (sweep.arrays_used <= sweep.num_arrays).all()

    def test_sweep_len_and_rows(self, lattice):
        sweep = lattice.sweep([32, 64])
        assert len(sweep) == 2
        rows = sweep.rows()
        assert rows[0]["arrays"] == 32
        assert rows[1]["used"] <= 64

    def test_outcome_throughput(self, lattice):
        point = lattice.outcome(64)
        assert point.throughput_per_kcycle == pytest.approx(
            1000 / point.bottleneck_cycles)

    def test_for_solutions_alias(self):
        sols = [solve(layer, ARRAY, "vw-sdk") for layer in resnet18()]
        assert (chip_lattice(sols).floor_arrays
                == ChipLattice.for_solutions(sols).floor_arrays)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ChipLattice.for_solutions([])

    def test_single_layer_network(self):
        net = [ConvLayer.square(14, 3, 256, 256)]
        lat = ChipLattice.for_network(net, ARRAY)
        sol = solve(net[0], ARRAY, "vw-sdk")
        # 7 tiles, 72 positions: 14 arrays -> 2 replicas -> 36 cycles.
        assert lat.outcome(14).bottleneck_cycles == 36
        assert lat.outcome(7).bottleneck_cycles == sol.breakdown.n_pw


class TestCostedChipLattice:
    """Energy/area accounting on top of the staircase replay."""

    PARAMS = CostParams(cycle_time_ns=50.0, adc_energy_pj=1.0)

    @pytest.fixture(scope="class")
    def lattice(self):
        return ChipLattice.for_network(resnet18(), ARRAY,
                                       cost_params=self.PARAMS)

    def test_uncosted_lattice_has_no_energy(self):
        lat = ChipLattice.for_network(resnet18(), ARRAY)
        assert lat.cost_params is None
        assert lat.total_energy_nj is None
        sweep = lat.sweep([64])
        assert sweep.energy_nj is None and sweep.latency_us is None
        point = sweep.outcome(0)
        assert point.energy_nj is None and point.latency_us is None
        assert point.cells_used > 0      # area accounting is always on

    def test_stage_energy_matches_scalar_cost_report(self, lattice):
        # Per-repeat terms are stored exactly as the scalar oracle
        # prices them; the total is their fsum with repeats expanded.
        import math as _math
        for sol, energy in zip(lattice.solutions,
                               lattice.stage_energy_nj.tolist()):
            report = cost_report(sol, self.PARAMS)
            assert energy == report.compute_energy_nj
        assert lattice.total_energy_nj == _math.fsum(
            cost_report(sol, self.PARAMS).compute_energy_nj
            for sol in lattice.solutions
            for _ in range(sol.layer.repeats))

    def test_energy_is_budget_independent(self, lattice):
        sweep = lattice.sweep([23, 64, 4096])
        assert sweep.energy_nj[0] == sweep.energy_nj[1] == \
            sweep.energy_nj[2] == lattice.total_energy_nj

    def test_latency_us_tracks_bottleneck(self, lattice):
        point = lattice.outcome(64)
        assert point.latency_us == \
            point.bottleneck_cycles * self.PARAMS.cycle_time_ns / 1000.0
        sweep = lattice.sweep([64])
        assert sweep.outcome(0) == point

    def test_cells_used_is_arrays_times_geometry(self, lattice):
        # Homogeneous lattice: every array has the same cell count.
        sweep = lattice.sweep([23, 64, 200])
        expected = sweep.arrays_used * ARRAY.cells
        assert (sweep.cells_used == expected).all()

    def test_infeasible_probes_carry_nan_and_zero(self, lattice):
        sweep = lattice.sweep([lattice.floor_arrays - 1])
        import math as _math
        assert _math.isnan(float(sweep.energy_nj[0]))
        assert _math.isnan(float(sweep.latency_us[0]))
        assert int(sweep.cells_used[0]) == 0
        assert sweep.rows()[0]["energy (nJ)"] == "-"

    def test_frontier_counts_start_at_floor_and_reach_one(self, lattice):
        counts = lattice.frontier_counts()
        assert int(counts[0]) == lattice.floor_arrays
        sweep = lattice.sweep(counts)
        assert bool(sweep.feasible.all())
        assert int(sweep.bottleneck_cycles[-1]) == 1
        # Every breakpoint budget is spent exactly.
        assert (sweep.arrays_used == sweep.num_arrays).all()

    def test_frontier_counts_cap(self, lattice):
        capped = lattice.frontier_counts(max_arrays=100)
        assert (capped <= 100).all()
        assert lattice.frontier_counts(max_arrays=1).size == 0

    def test_frontier_latencies_are_the_staircase_levels(self, lattice):
        # The per-call staircase enumeration the stored group
        # latencies replaced, kept as the oracle.
        from repro.api import MappingEngine
        mixed = MappingEngine().chip_lattice(
            vgg13(), [PIMArray(128, 256) if i % 2 else ARRAY
                      for i in range(len(vgg13()))])
        for lat in (lattice, mixed):
            levels = {1}
            for positions in lat.n_pw.tolist():
                levels.update(level for level, _ in
                              _stage_staircase(positions))
            assert lat.frontier_latencies().tolist() == sorted(levels)

    def test_min_arrays_rejects_targets_below_one(self, lattice):
        for target in (0, -1, np.array([5, 0]), np.array([-3, 2])):
            with pytest.raises(ConfigurationError, match=">= 1"):
                lattice.min_arrays(target)


class TestEngineChipLattice:
    """Engine-side memoization of costed / heterogeneous lattices."""

    def test_cost_params_split_the_memo(self):
        from repro.api import MappingEngine
        engine = MappingEngine()
        plain = engine.chip_lattice(resnet18(), ARRAY)
        costed = engine.chip_lattice(resnet18(), ARRAY,
                                     cost_params=CostParams())
        assert plain is not costed
        assert plain is engine.chip_lattice(resnet18(), ARRAY)
        assert costed is engine.chip_lattice(resnet18(), ARRAY,
                                             cost_params=CostParams())

    def test_per_stage_arrays(self):
        from repro.api import MappingEngine
        engine = MappingEngine()
        net = resnet18()
        arrays = [ARRAY if i % 2 else PIMArray.square(256)
                  for i in range(len(net))]
        lattice = engine.chip_lattice(net, arrays)
        assert [s.array for s in lattice.solutions] == arrays
        assert lattice is engine.chip_lattice(net, tuple(arrays))

    def test_per_stage_arrays_length_mismatch(self):
        from repro.api import MappingEngine
        from repro.core import ConfigurationError
        with pytest.raises(ConfigurationError):
            MappingEngine().chip_lattice(resnet18(), [ARRAY, ARRAY])


class TestPools:
    def test_pool_normalised_and_deduplicated(self):
        from repro.chip import pool_plans
        pool = [ARRAY, PIMArray.square(128), ARRAY]
        plans = pool_plans(resnet18(), pool, include_mixed=False)
        assert [p.label for p in plans] == ["128x128", "512x512"]
        assert all(p.homogeneous for p in plans)

    def test_empty_pool_rejected(self):
        from repro.chip import pool_plans
        from repro.core import ConfigurationError
        with pytest.raises(ConfigurationError):
            pool_plans(resnet18(), [])
        with pytest.raises(ConfigurationError):
            pool_plans(resnet18(), ["512x512"])    # not PIMArray

    def test_best_fit_is_deterministic_per_shape(self):
        from repro.chip import best_fit_arrays
        pool = [PIMArray.square(128), ARRAY]
        assignment = best_fit_arrays(resnet18(), pool)
        assert len(assignment) == len(resnet18())
        # Identical layer shapes always land on identical geometries.
        by_shape = {}
        for layer, geometry in zip(resnet18(), assignment):
            key = (layer.ifm_h, layer.ifm_w, layer.kernel_h,
                   layer.kernel_w, layer.in_channels, layer.out_channels)
            assert by_shape.setdefault(key, geometry) == geometry

    def test_mixed_plan_only_when_it_differs(self):
        from repro.chip import pool_plans
        # One-geometry pool: best fit degenerates to the homogeneous
        # plan, so no mixed plan is emitted.
        plans = pool_plans(resnet18(), [ARRAY], include_mixed=True)
        assert [p.label for p in plans] == ["512x512"]
