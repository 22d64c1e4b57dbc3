"""Functional validation of the native strided execution path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConfigurationError, ConvLayer, PIMArray, ParallelWindow
from repro.core.cycles import variable_window_cycles
from repro.core.types import MappingError
from repro.mapping import build_plan
from repro.pim import PIMEngine, conv2d_reference
from repro.search import (MappingSolution, im2col_solution, sdk_solution,
                          solve, vwsdk_solution)
from tests.conftest import random_layer_inputs

strided_layers = st.builds(
    ConvLayer.square,
    st.integers(min_value=5, max_value=14),      # ifm
    st.integers(min_value=1, max_value=5),       # kernel
    st.integers(min_value=1, max_value=6),       # ic
    st.integers(min_value=1, max_value=6),       # oc
    stride=st.integers(min_value=2, max_value=3),
    padding=st.integers(min_value=0, max_value=2),
)

tiny_arrays = st.builds(
    PIMArray,
    st.integers(min_value=6, max_value=128),     # rows
    st.integers(min_value=3, max_value=48),      # cols
)


class TestStrideGuard:
    def test_large_window_on_strided_layer_rejected(self):
        layer = ConvLayer.square(14, 3, 8, 8, stride=2)
        with pytest.raises(Exception, match="stride"):
            ParallelWindow(h=4, w=4).windows_along(layer)

    def test_kernel_window_allowed_on_strided_layer(self):
        layer = ConvLayer.square(14, 3, 8, 8, stride=2)
        assert ParallelWindow.square(3).windows_along(layer) == (1, 1)

    def test_im2col_still_solves_strided(self):
        layer = ConvLayer.square(14, 3, 8, 8, stride=2)
        sol = im2col_solution(layer, PIMArray(128, 64))
        assert sol.cycles == layer.num_windows

    def test_vwsdk_search_beats_im2col_on_strided(self):
        # Windows on the stride grid are real candidates: the whole
        # 13x13 IFM holds all 36 kernel windows in one position.
        layer = ConvLayer.square(14, 3, 8, 8, stride=2)
        arr = PIMArray(512, 512)
        sol = vwsdk_solution(layer, arr)
        assert not sol.is_im2col_shaped
        assert str(sol.window) == "13x13"
        assert im2col_solution(layer, arr).cycles == 36
        assert sol.cycles == 3


class TestIm2colStridedExecution:
    def test_engine_runs_strided_im2col(self, rng):
        layer = ConvLayer.square(9, 3, 4, 5, stride=2, padding=1)
        ifm, kernel = random_layer_inputs(layer, rng)
        sol = im2col_solution(layer, PIMArray(64, 32))
        result = PIMEngine().run(sol, ifm, kernel)
        np.testing.assert_array_equal(
            result.ofm, conv2d_reference(ifm, kernel, stride=2, padding=1))
        assert result.cycles == sol.cycles


class TestStridedPlanExecution:
    CASES = [
        (ConvLayer.square(9, 3, 4, 5, stride=2), PIMArray(64, 32)),
        (ConvLayer.square(12, 3, 3, 4, stride=2, padding=1),
         PIMArray(96, 48)),
        (ConvLayer.square(11, 2, 5, 6, stride=3), PIMArray(80, 24)),
        (ConvLayer.square(16, 5, 2, 3, stride=2, padding=2),
         PIMArray(128, 16)),
    ]

    @pytest.mark.parametrize("layer,arr", CASES)
    def test_search_result_executes_exactly(self, layer, arr, rng):
        ifm, kernel = random_layer_inputs(layer, rng)
        solution = vwsdk_solution(layer, arr)
        if solution.window.windows_inside(layer) == 1:
            pytest.skip("search degenerated to im2col")
        plan = build_plan(solution)
        result = PIMEngine().run(plan, ifm, kernel)
        reference = conv2d_reference(ifm, kernel, stride=layer.stride,
                                     padding=layer.padding)
        np.testing.assert_array_equal(result.ofm, reference)
        assert result.cycles == solution.cycles

    def test_forced_strided_windows_execute(self, rng):
        layer = ConvLayer.square(12, 3, 3, 4, stride=2)
        arr = PIMArray(96, 48)
        ifm, kernel = random_layer_inputs(layer, rng)
        reference = conv2d_reference(ifm, kernel, stride=2)
        for nw_h in (1, 2, 3):
            for nw_w in (1, 2, 3):
                if nw_h == nw_w == 1:
                    continue
                window = ParallelWindow.spanning(layer, nw_h, nw_w)
                try:
                    bd = variable_window_cycles(layer, arr, window)
                except MappingError:  # window infeasible on this array
                    continue
                solution = MappingSolution(
                    scheme="vw-sdk", layer=layer, array=arr,
                    window=window, breakdown=bd,
                    duplication=nw_h * nw_w)
                plan = build_plan(solution)
                result = PIMEngine().run(plan, ifm, kernel)
                np.testing.assert_array_equal(result.ofm, reference)
                assert result.cycles == bd.total

    def test_resnet_stem_downscaled_executes(self, rng):
        # Real conv1 shape at reduced size: 7x7 stride 2 pad 3.
        layer = ConvLayer.square(30, 7, 3, 8, stride=2, padding=3)
        arr = PIMArray(256, 64)
        ifm, kernel = random_layer_inputs(layer, rng, -2, 3)
        solution = vwsdk_solution(layer, arr)
        plan = build_plan(solution)
        result = PIMEngine().run(plan, ifm, kernel)
        reference = conv2d_reference(ifm, kernel, stride=2, padding=3)
        np.testing.assert_array_equal(result.ofm, reference)


class TestSdkStridedExecution:
    def test_sdk_copies_spaced_by_stride_execute_exactly(self, rng):
        # Two copies per axis one stride apart: a 9x9 window for a 7x7
        # kernel at stride 2.  The 243 window rows split over two row
        # tiles mid-channel, so the used-cell check in validate() sees
        # where each copy's footprint really sits.
        layer = ConvLayer.square(15, 7, 3, 1, stride=2, padding=2)
        arr = PIMArray(128, 128)
        solution = sdk_solution(layer, arr)
        assert (str(solution.window), solution.duplication) == ("9x9", 4)
        assert solution.breakdown.ar == 2
        plan = build_plan(solution)
        plan.validate()
        ifm, kernel = random_layer_inputs(layer, rng)
        result = PIMEngine().run(plan, ifm, kernel)
        np.testing.assert_array_equal(
            result.ofm, conv2d_reference(ifm, kernel, stride=2, padding=2))
        assert result.cycles == solution.cycles


@given(strided_layers, tiny_arrays,
       st.sampled_from(["im2col", "smd", "sdk", "vw-sdk"]),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_every_strided_plan_executes_exactly(layer, array, scheme, seed):
    solution = solve(layer, array, scheme)
    if scheme != "smd" or solution.duplication == 1:
        build_plan(solution).validate()
    ifm, kernel = random_layer_inputs(layer, np.random.default_rng(seed))
    result = PIMEngine().run(solution, ifm, kernel)
    np.testing.assert_array_equal(
        result.ofm, conv2d_reference(ifm, kernel, stride=layer.stride,
                                     padding=layer.padding))
    assert result.cycles == solution.cycles
