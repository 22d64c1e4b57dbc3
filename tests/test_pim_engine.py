"""Integration tests: the engine's two contracts on every scheme.

1. The OFM equals the direct convolution (exact for integer data).
2. The executed cycle count equals the analytical model's count.
"""

import dataclasses

import numpy as np
import pytest

from repro import ConvLayer, MappingError, PIMArray
from repro.core import CostParams
from repro.mapping import build_plan
from repro.mapping.plan import MappingPlan
from repro.pim import engine as engine_module
from repro.pim import (
    Crossbar,
    LinearADC,
    LognormalNoise,
    PIMEngine,
    conv2d_reference,
)
from repro.search import solve
from tests.conftest import random_layer_inputs

SCHEMES = ("im2col", "smd", "sdk", "vw-sdk")

CASES = [
    (ConvLayer.square(8, 3, 4, 6), PIMArray(64, 32)),
    (ConvLayer.square(10, 3, 7, 5), PIMArray(48, 16)),
    (ConvLayer.square(12, 3, 16, 12), PIMArray(128, 64)),
    (ConvLayer(ifm_h=9, ifm_w=12, kernel_h=2, kernel_w=4,
               in_channels=3, out_channels=9), PIMArray(40, 24)),
    (ConvLayer.square(7, 3, 12, 8), PIMArray(30, 10)),
    (ConvLayer.square(6, 5, 2, 3), PIMArray(50, 6)),
    (ConvLayer(ifm_h=11, ifm_w=6, kernel_h=3, kernel_w=3,
               in_channels=5, out_channels=7), PIMArray(75, 33)),
]


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("layer,arr", CASES)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_ofm_matches_reference(self, layer, arr, scheme, rng):
        ifm, kernel = random_layer_inputs(layer, rng)
        sol = solve(layer, arr, scheme)
        result = PIMEngine().run(sol, ifm, kernel)
        np.testing.assert_array_equal(result.ofm,
                                      conv2d_reference(ifm, kernel))

    @pytest.mark.parametrize("layer,arr", CASES)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_cycles_match_analytical(self, layer, arr, scheme, rng):
        ifm, kernel = random_layer_inputs(layer, rng)
        sol = solve(layer, arr, scheme)
        assert PIMEngine().run(sol, ifm, kernel).cycles == sol.cycles

    def test_padded_layer(self, rng):
        layer = ConvLayer.square(8, 3, 3, 4, padding=1)
        ifm, kernel = random_layer_inputs(layer, rng)
        sol = solve(layer, PIMArray(64, 32), "vw-sdk")
        result = PIMEngine().run(sol, ifm, kernel)
        np.testing.assert_array_equal(
            result.ofm, conv2d_reference(ifm, kernel, padding=1))

    def test_real_vgg_layer_downscaled(self, rng):
        # VGG-13 layer-5 shape at reduced IFM/channels, still tiled.
        layer = ConvLayer.square(14, 3, 40, 24)
        arr = PIMArray(128, 64)
        ifm, kernel = random_layer_inputs(layer, rng, -2, 3)
        for scheme in SCHEMES:
            sol = solve(layer, arr, scheme)
            result = PIMEngine().run(sol, ifm, kernel)
            np.testing.assert_array_equal(result.ofm,
                                          conv2d_reference(ifm, kernel))


class TestActivityCounters:
    def test_rows_and_cols_counted(self, rng):
        layer = ConvLayer.square(8, 3, 4, 6)
        arr = PIMArray(64, 32)
        ifm, kernel = random_layer_inputs(layer, rng)
        sol = solve(layer, arr, "im2col")
        result = PIMEngine().run(sol, ifm, kernel)
        assert result.rows_driven == sol.cycles * layer.im2col_rows
        assert result.cols_read == sol.cycles * layer.out_channels

    def test_active_cells_match_utilization(self, rng):
        from repro.core.utilization import utilization_report
        layer = ConvLayer.square(10, 3, 7, 5)
        arr = PIMArray(48, 16)
        sol = solve(layer, arr, "vw-sdk")
        ifm, kernel = random_layer_inputs(layer, rng)
        result = PIMEngine().run(sol, ifm, kernel)
        rep = utilization_report(sol)
        expected = sol.breakdown.n_pw * sum(t.cells_used for t in rep.tiles)
        assert result.active_cells == expected

    def test_energy_positive_and_latency_scales(self, rng):
        layer = ConvLayer.square(8, 3, 4, 6)
        ifm, kernel = random_layer_inputs(layer, rng)
        sol = solve(layer, PIMArray(64, 32), "vw-sdk")
        result = PIMEngine().run(sol, ifm, kernel)
        assert result.energy_nj() > 0
        fast = result.latency_us(CostParams(cycle_time_ns=10))
        slow = result.latency_us(CostParams(cycle_time_ns=100))
        assert slow == pytest.approx(10 * fast)

    def test_programmings_counted(self, rng):
        layer = ConvLayer.square(10, 3, 7, 5)
        sol = solve(layer, PIMArray(48, 16), "vw-sdk")
        ifm, kernel = random_layer_inputs(layer, rng)
        result = PIMEngine().run(sol, ifm, kernel)
        assert result.programmings == sol.breakdown.tiles_per_position

    def test_trace_recording(self, rng):
        layer = ConvLayer.square(8, 3, 4, 6)
        sol = solve(layer, PIMArray(64, 32), "vw-sdk")
        ifm, kernel = random_layer_inputs(layer, rng)
        result = PIMEngine(record_trace=True).run(sol, ifm, kernel)
        assert result.trace is not None
        assert result.trace.total_cycles == result.cycles
        summary = result.trace.summary()
        assert summary["rows_driven"] == result.rows_driven

    def test_trace_off_by_default(self, rng):
        layer = ConvLayer.square(8, 3, 4, 6)
        sol = solve(layer, PIMArray(64, 32), "vw-sdk")
        ifm, kernel = random_layer_inputs(layer, rng)
        assert PIMEngine().run(sol, ifm, kernel).trace is None


class TestNonIdealExecution:
    def test_lognormal_noise_perturbs_output(self, rng):
        layer = ConvLayer.square(8, 3, 4, 6)
        arr = PIMArray(64, 32)
        ifm, kernel = random_layer_inputs(layer, rng)
        sol = solve(layer, arr, "vw-sdk")
        xbar = Crossbar(arr, noise=LognormalNoise(0.2), seed=3)
        noisy = PIMEngine(crossbar=xbar).run(sol, ifm, kernel)
        clean = conv2d_reference(ifm, kernel)
        assert not np.array_equal(noisy.ofm, clean)
        # Still correlated with the true output.
        corr = np.corrcoef(noisy.ofm.ravel(), clean.ravel())[0, 1]
        assert corr > 0.9

    def test_adc_quantisation_bounded_error(self, rng):
        layer = ConvLayer.square(8, 3, 2, 3)
        arr = PIMArray(64, 32)
        ifm, kernel = random_layer_inputs(layer, rng, -2, 3)
        sol = solve(layer, arr, "im2col")
        adc = LinearADC(bits=12, full_scale=512.0)
        xbar = Crossbar(arr, adc=adc)
        result = PIMEngine(crossbar=xbar).run(sol, ifm, kernel)
        clean = conv2d_reference(ifm, kernel)
        assert np.abs(result.ofm - clean).max() <= adc.step

    def test_engine_rejects_small_crossbar(self, rng):
        layer = ConvLayer.square(8, 3, 4, 6)
        sol = solve(layer, PIMArray(64, 32), "vw-sdk")
        ifm, kernel = random_layer_inputs(layer, rng)
        with pytest.raises(MappingError):
            PIMEngine(crossbar=Crossbar(PIMArray(16, 16))).run(
                sol, ifm, kernel)


class TestInputValidation:
    def test_wrong_ifm_shape(self, rng):
        layer = ConvLayer.square(8, 3, 4, 6)
        sol = solve(layer, PIMArray(64, 32), "im2col")
        with pytest.raises(Exception):
            PIMEngine().run(sol, np.zeros((4, 9, 8)), np.zeros((6, 4, 3, 3)))

    def test_wrong_kernel_shape(self, rng):
        layer = ConvLayer.square(8, 3, 4, 6)
        sol = solve(layer, PIMArray(64, 32), "im2col")
        with pytest.raises(Exception):
            PIMEngine().run(sol, np.zeros((4, 8, 8)), np.zeros((6, 4, 3, 2)))

    def test_rejects_unknown_mapping_type(self):
        with pytest.raises(Exception):
            PIMEngine().run("not-a-plan", np.zeros((1, 4, 4)),
                            np.zeros((1, 1, 3, 3)))


# ----------------------------------------------------------------------
# Plan memo and index tables
# ----------------------------------------------------------------------
@pytest.fixture
def counted_builds(monkeypatch):
    """Count plan builds and validations behind the engine."""
    engine_module._PLAN_MEMO.clear()
    calls = {"build": 0, "validate": 0}
    build, validate = engine_module.build_plan, MappingPlan.validate

    def counting_build(solution):
        calls["build"] += 1
        return build(solution)

    def counting_validate(plan):
        calls["validate"] += 1
        validate(plan)

    monkeypatch.setattr(engine_module, "build_plan", counting_build)
    monkeypatch.setattr(MappingPlan, "validate", counting_validate)
    yield calls
    engine_module._PLAN_MEMO.clear()


class TestPlanMemo:
    def test_solution_built_and_validated_once(self, counted_builds, rng):
        layer = ConvLayer.square(10, 3, 7, 5)
        sol = solve(layer, PIMArray(48, 16), "vw-sdk")
        for _ in range(3):
            ifm, kernel = random_layer_inputs(layer, rng)
            result = PIMEngine().run(sol, ifm, kernel)
            np.testing.assert_array_equal(result.ofm,
                                          conv2d_reference(ifm, kernel))
        renamed = dataclasses.replace(
            sol, layer=dataclasses.replace(layer, name="other"))
        PIMEngine().run(renamed, ifm, kernel)
        assert counted_builds == {"build": 1, "validate": 1}
        PIMEngine().run(solve(layer, PIMArray(48, 16), "im2col"), ifm, kernel)
        assert counted_builds == {"build": 2, "validate": 2}

    def test_failed_validation_is_not_stored(self, counted_builds,
                                             monkeypatch, rng):
        layer = ConvLayer.square(8, 3, 4, 6)
        sol = solve(layer, PIMArray(64, 32), "vw-sdk")
        ifm, kernel = random_layer_inputs(layer, rng)
        validate = MappingPlan.validate

        def failing(plan):
            validate(plan)
            raise MappingError("injected")

        monkeypatch.setattr(MappingPlan, "validate", failing)
        with pytest.raises(MappingError, match="injected"):
            PIMEngine().run(sol, ifm, kernel)
        assert len(engine_module._PLAN_MEMO) == 0
        monkeypatch.setattr(MappingPlan, "validate", validate)
        assert PIMEngine().run(sol, ifm, kernel).cycles == sol.cycles
        assert len(engine_module._PLAN_MEMO) == 1

    def test_memoized_arrays_are_frozen(self, counted_builds, rng):
        layer = ConvLayer.square(9, 3, 6, 5)
        sol = solve(layer, PIMArray(40, 12), "im2col")
        ifm, kernel = random_layer_inputs(layer, rng)
        PIMEngine().run(sol, ifm, kernel)
        indexed = engine_module._PLAN_MEMO.get_or_compute(
            sol, lambda: pytest.fail("memo miss"))
        arrays = list(indexed.arrays())
        assert arrays and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            arrays[0][0] = 1  # proves read-only

    def test_prebuilt_plan_is_left_writable(self, rng):
        layer = ConvLayer.square(8, 3, 4, 6)
        plan = build_plan(solve(layer, PIMArray(64, 32), "vw-sdk"))
        ifm, kernel = random_layer_inputs(layer, rng)
        PIMEngine().run(plan, ifm, kernel)
        assert plan.tiles[0][0].row_desc.flags.writeable


def _permuted(plan, rng):
    """*plan* with every tile's rows shuffled, every column tile's
    columns shuffled (alike in each of its row tiles, which accumulate
    into one result) and the window schedule in random order: no builder
    lays a plan out like this."""
    col_orders = [rng.permutation(tile.cols_used) for tile in plan.tiles[0]]
    tiles = tuple(
        tuple(dataclasses.replace(
            tile, row_desc=rng.permutation(tile.row_desc),
            col_desc=tile.col_desc[order])
            for tile, order in zip(row, col_orders))
        for row in plan.tiles)
    order = rng.permutation(len(plan.origins))
    return dataclasses.replace(
        plan, tiles=tiles,
        origins=tuple(plan.origins[i] for i in order),
        group_origins=tuple(plan.group_origins[i] for i in order))


class TestCustomPlans:
    @pytest.mark.parametrize("scheme", ("im2col", "sdk", "vw-sdk"))
    def test_any_layout_and_schedule_order_is_exact(self, scheme, rng):
        layer = ConvLayer.square(9, 3, 6, 7, padding=1)
        plan = build_plan(solve(layer, PIMArray(40, 12), scheme))
        ifm, kernel = random_layer_inputs(layer, rng)
        result = PIMEngine().run(_permuted(plan, rng), ifm, kernel)
        np.testing.assert_array_equal(
            result.ofm, conv2d_reference(ifm, kernel, padding=1))
        assert result.cycles == plan.total_cycles

    def test_reversed_schedule_is_exact(self, rng):
        layer = ConvLayer.square(10, 3, 3, 4)
        plan = build_plan(solve(layer, PIMArray(64, 32), "vw-sdk"))
        reversed_plan = dataclasses.replace(
            plan, origins=plan.origins[::-1],
            group_origins=plan.group_origins[::-1])
        ifm, kernel = random_layer_inputs(layer, rng)
        np.testing.assert_array_equal(
            PIMEngine().run(reversed_plan, ifm, kernel).ofm,
            conv2d_reference(ifm, kernel))

    def test_schedule_outside_the_ifm_is_rejected(self, rng):
        layer = ConvLayer.square(10, 3, 3, 4)
        plan = build_plan(solve(layer, PIMArray(64, 32), "vw-sdk"))
        oy, ox = plan.origins[-1]
        shifted = dataclasses.replace(
            plan, origins=plan.origins[:-1] + ((oy, ox + 1),))
        ifm, kernel = random_layer_inputs(layer, rng)
        with pytest.raises(MappingError):
            PIMEngine().run(shifted, ifm, kernel)

    def test_tile_past_the_channels_is_rejected(self, rng):
        layer = ConvLayer.square(10, 3, 3, 4)
        plan = build_plan(solve(layer, PIMArray(64, 32), "vw-sdk"))
        tile = plan.tiles[0][0]
        wide = dataclasses.replace(tile, channel_slice=(1, 4))
        ifm, kernel = random_layer_inputs(layer, rng)
        with pytest.raises(MappingError):
            PIMEngine().run(dataclasses.replace(plan, tiles=((wide,),)),
                            ifm, kernel)
