"""Unit tests for the design-space-exploration helpers."""

import pytest

from repro import ConvLayer, PIMArray
from repro.core.types import ConfigurationError, ReproError
from repro.dse import (
    InfeasibleTargetError,
    array_candidates,
    array_pareto,
    network_cycles,
    pareto_front,
    smallest_chip,
    smallest_square_array,
    window_pareto,
    zoo_pareto,
)
from repro.networks import Network, resnet18


class TestSmallestArray:
    def test_resnet_target_4294(self):
        arr = smallest_square_array(resnet18(), 4294)
        assert arr is not None
        # 512x512 achieves exactly 4294; the smallest array might be a
        # bit smaller, but never larger.
        assert arr.rows <= 512
        assert network_cycles(resnet18(), arr) <= 4294

    def test_result_is_minimal(self):
        arr = smallest_square_array(resnet18(), 10000, lo=8, hi=2048)
        smaller = PIMArray.square(arr.rows - 1)
        assert network_cycles(resnet18(), smaller) > 10000

    def test_unreachable_target_raises_typed_error(self):
        net = Network.from_layers("t", [ConvLayer.square(14, 3, 8, 8)])
        with pytest.raises(InfeasibleTargetError) as info:
            smallest_square_array(net, 1, hi=16)
        # The error reports the best achievable total at the bound and
        # stays catchable as the library-wide base class.
        assert info.value.best == network_cycles(net, PIMArray.square(16))
        assert isinstance(info.value, ReproError)

    def test_validation(self):
        with pytest.raises(Exception):
            smallest_square_array(resnet18(), 0)
        # An inverted range must not answer above hi, and lo=0 must
        # name the bound rather than fail inside PIMArray.
        for lo, hi in ((2048, 1024), (0, 1024)):
            with pytest.raises(ConfigurationError, match="lo <= hi"):
                smallest_square_array(resnet18(), 10**9, lo=lo, hi=hi)

    def test_plain_layer_list_infeasible_raises_typed_error(self):
        # The engine layer deliberately accepts plain layer iterables
        # (no .name); the infeasible path must too.
        layers = [ConvLayer.square(14, 3, 8, 8)]
        with pytest.raises(InfeasibleTargetError):
            smallest_square_array(layers, 1, hi=16)
        with pytest.raises(InfeasibleTargetError):
            smallest_chip(layers, PIMArray.square(16), 1, max_arrays=2)


class TestSmallestChip:
    def test_meets_target(self):
        chip = smallest_chip(resnet18(), PIMArray.square(512), 200,
                             max_arrays=4096)
        assert chip is not None
        from repro.chip import plan_pipeline
        assert plan_pipeline(resnet18(), chip).bottleneck_cycles <= 200

    def test_minimality(self):
        from repro.chip import ChipConfig, plan_pipeline
        from repro.chip.pipeline import InsufficientArraysError
        chip = smallest_chip(resnet18(), PIMArray.square(512), 200,
                             max_arrays=4096)
        try:
            plan = plan_pipeline(resnet18(),
                                 ChipConfig(chip.array,
                                            chip.num_arrays - 1))
            assert plan.bottleneck_cycles > 200
        except InsufficientArraysError:
            pass  # one fewer array cannot even hold the weights

    def test_unreachable_raises_typed_error(self):
        with pytest.raises(InfeasibleTargetError) as info:
            smallest_chip(resnet18(), PIMArray.square(512), 1,
                          max_arrays=64)
        from repro.chip import ChipConfig, plan_pipeline
        best = plan_pipeline(resnet18(),
                             ChipConfig(PIMArray.square(512), 64)
                             ).bottleneck_cycles
        assert info.value.best == best

    def test_unreachable_floor_raises_with_no_best(self):
        # Two arrays cannot even hold ResNet-18's weights resident.
        with pytest.raises(InfeasibleTargetError) as info:
            smallest_chip(resnet18(), PIMArray.square(512), 10000,
                          max_arrays=2)
        assert info.value.best is None

    def test_malformed_bounds_raise_configuration_error(self):
        # A bool or a fractional bound is no array count or cycle target.
        for bad in (0, True, 2.5):
            with pytest.raises(ConfigurationError):
                smallest_chip(resnet18(), PIMArray.square(512), bad)
            with pytest.raises(ConfigurationError):
                smallest_chip(resnet18(), PIMArray.square(512), 200,
                              max_arrays=bad)


class TestPareto:
    def test_front_basics(self):
        points = [(1, 5), (2, 2), (3, 3), (5, 1), (4, 4)]
        front = pareto_front(points, lambda p: p)
        assert set(front) == {(1, 5), (2, 2), (5, 1)}

    def test_single_point(self):
        assert pareto_front([(1, 1)], lambda p: p) == [(1, 1)]

    def test_duplicates_survive(self):
        points = [(1, 1), (1, 1)]
        assert len(pareto_front(points, lambda p: p)) == 2

    def test_window_pareto_contains_cycle_optimum(self):
        from repro.search import vwsdk_solution
        layer = ConvLayer.square(14, 3, 256, 256)
        arr = PIMArray.square(512)
        front = window_pareto(layer, arr)
        best = vwsdk_solution(layer, arr)
        assert front[0].cycles == best.cycles

    def test_array_pareto_paper_points(self):
        candidates = [PIMArray.square(s) for s in (512, 128, 256)]
        front = array_pareto(resnet18(), candidates)
        assert [p.array.rows for p in front] == [128, 256, 512]
        assert [p.cycles for p in front] == [36310, 10287, 4294]
        assert front[0].cells == 128 * 128

    def test_array_pareto_frontier_invariant(self):
        candidates = [PIMArray(r, c)
                      for r in (64, 128, 200, 512) for c in (64, 256, 512)]
        front = array_pareto(resnet18(), candidates)
        cells = [p.cells for p in front]
        cycles = [p.cycles for p in front]
        # Strictly increasing cost must buy strictly fewer cycles.
        assert cells == sorted(set(cells))
        assert cycles == sorted(cycles, reverse=True)
        assert len(set(cycles)) == len(cycles)

    def test_array_pareto_drops_duplicates(self):
        twice = [PIMArray.square(256), PIMArray.square(256)]
        front = array_pareto(resnet18(), twice)
        assert len(front) == 1

    def test_array_pareto_rejects_empty_candidates(self):
        # A budget no candidate fits is a configuration error, not an
        # empty frontier; so is an explicitly empty candidate list.
        with pytest.raises(ConfigurationError, match="max_cells=16"):
            array_pareto(resnet18(), max_cells=16)
        with pytest.raises(ConfigurationError, match="max_cells=16"):
            zoo_pareto(["resnet18"], max_cells=16)
        with pytest.raises(ConfigurationError, match="sides=\\(64,\\)"):
            array_pareto(resnet18(), max_cells=32 * 32, sides=(64,))
        with pytest.raises(ConfigurationError):
            array_pareto(resnet18(), [])

    def test_array_pareto_fallback_scheme(self):
        candidates = [PIMArray.square(s) for s in (128, 512)]
        front = array_pareto(resnet18(), candidates, scheme="sdk")
        assert [p.cycles for p in front] == [
            network_cycles(resnet18(), c, "sdk") for c in candidates]

    def test_array_candidates_respect_cells_budget(self):
        for arr in array_candidates(64 * 64):
            assert arr.cells <= 64 * 64

    def test_array_candidates_non_square_superset_of_square(self):
        square = set(array_candidates(512 * 512, square_only=True))
        full = set(array_candidates(512 * 512))
        assert square < full
        assert any(a.rows != a.cols for a in full)

    def test_array_candidates_custom_sides(self):
        got = array_candidates(128 * 128, sides=(64, 128))
        assert {str(a) for a in got} == {"64x64", "64x128", "128x64",
                                         "128x128"}

    def test_array_candidates_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            array_candidates(0)

    def test_array_candidates_rejects_malformed_inputs(self):
        for bad in (0, True, 2.5):
            with pytest.raises(ConfigurationError, match="max_cells"):
                array_candidates(bad)
        with pytest.raises(ConfigurationError, match="at least one side"):
            array_candidates(128 * 128, sides=[])

    def test_generated_non_square_frontier_dominates_square(self):
        # The ISSUE acceptance criterion: on the README network the
        # non-square frontier dominates-or-equals the square-only one.
        net = resnet18()
        square = array_pareto(net, square_only=True)
        full = array_pareto(net)
        for point in square:
            assert any(q.cells <= point.cells and q.cycles <= point.cycles
                       for q in full), point
        # And it strictly improves somewhere: some rectangle beats the
        # best square of equal-or-larger cost.
        assert any(q.array.rows != q.array.cols for q in full)

    def test_generated_frontier_matches_explicit_candidates(self):
        net = resnet18()
        explicit = array_pareto(net, array_candidates(256 * 256))
        generated = array_pareto(net, max_cells=256 * 256)
        assert [(p.array, p.cycles) for p in explicit] == \
            [(p.array, p.cycles) for p in generated]

    def test_window_pareto_sorted_and_tradeoff(self):
        layer = ConvLayer.square(14, 3, 64, 64)
        front = window_pareto(layer, PIMArray(128, 64))
        cycles = [p.cycles for p in front]
        assert cycles == sorted(cycles)
        utils = [p.mean_utilization_pct for p in front]
        # Along the frontier, giving up cycles must buy utilization.
        assert utils == sorted(utils)
