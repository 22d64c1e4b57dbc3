"""Unit tests for the stride/padding generalisation.

Windows are counted on the layer's stride grid: a group of ``nw``
kernel windows spans ``K + (nw - 1)*s`` pixels, and the paper's model
(:func:`variable_window_cycles`, :func:`vwsdk_solution`) applies at any
stride.
"""

import pytest

from repro import ConvLayer, MappingError, PIMArray, ParallelWindow
from repro.core.cycles import im2col_cycles, variable_window_cycles
from repro.core.window import iter_candidate_windows
from repro.search import vwsdk_solution


class TestStridedWindow:
    def test_pixel_window_stride1(self):
        layer = ConvLayer.square(14, 3, 8, 8)
        win = ParallelWindow.spanning(layer, nw_h=1, nw_w=2)
        assert str(win) == "4x3"

    def test_pixel_window_stride2(self):
        layer = ConvLayer.square(14, 3, 8, 8, stride=2)
        pixel = ParallelWindow.spanning(layer, nw_h=2, nw_w=2)
        assert (pixel.h, pixel.w) == (5, 5)   # 3 + (2-1)*2

    def test_windows_inside(self):
        layer = ConvLayer.square(14, 3, 8, 8, stride=2)
        win = ParallelWindow.spanning(layer, nw_h=2, nw_w=3)
        assert win.windows_inside(layer) == 6

    def test_validation(self):
        layer = ConvLayer.square(14, 3, 8, 8, stride=2)
        with pytest.raises(Exception):
            ParallelWindow.spanning(layer, nw_h=0, nw_w=1)


class TestStride1Equivalence:
    def test_im2col_breakdown_matches(self):
        layer = ConvLayer.square(7, 3, 512, 512)
        arr = PIMArray.square(512)
        assert im2col_cycles(layer, arr).total == 225


class TestStridedModel:
    def test_resnet_stem_search(self, array512):
        stem = ConvLayer.square(224, 7, 3, 64, stride=2, padding=3)
        sol = vwsdk_solution(stem, array512)
        assert sol.cycles < stem.num_windows  # beats 1 window/cycle
        assert sol.window.windows_inside(stem) > 1

    def test_stride2_breakdown_values(self):
        layer = ConvLayer.square(8, 2, 1, 1, stride=2)   # 4x4 windows
        arr = PIMArray(64, 16)
        bd = variable_window_cycles(
            layer, arr, ParallelWindow.spanning(layer, nw_h=2, nw_w=2))
        # PW spans 4x4 pixels; 4 windows/PW; grid 2x2 positions.
        assert bd.n_pw == 4
        assert bd.total == 4

    def test_stride2_im2col_window_count(self):
        layer = ConvLayer.square(8, 2, 1, 1, stride=2)
        bd = im2col_cycles(layer, PIMArray(64, 16))
        assert bd.n_pw == 16

    def test_pixel_overflow_raises(self):
        layer = ConvLayer.square(8, 3, 4, 4, stride=2)
        with pytest.raises(MappingError):
            variable_window_cycles(
                layer, PIMArray.square(512),
                ParallelWindow.spanning(layer, nw_h=4, nw_w=4))

    def test_row_overflow_raises(self):
        layer = ConvLayer.square(14, 3, 64, 64)
        with pytest.raises(MappingError):
            variable_window_cycles(
                layer, PIMArray(8, 512),
                ParallelWindow.spanning(layer, nw_h=2, nw_w=2))

    def test_padding_enlarges_search_space(self):
        bare = ConvLayer.square(7, 3, 16, 16)
        padded = ConvLayer.square(7, 3, 16, 16, padding=1)
        arr = PIMArray(128, 64)
        assert (vwsdk_solution(padded, arr).cycles
                >= vwsdk_solution(bare, arr).cycles)

    def test_candidate_iteration_skips_1x1(self):
        layer = ConvLayer.square(8, 3, 4, 4)
        assert all(c.windows_inside(layer) > 1
                   for c in iter_candidate_windows(layer))

    def test_solution_exposes_pixel_window(self, array512):
        stem = ConvLayer.square(224, 7, 3, 64, stride=2, padding=3)
        sol = vwsdk_solution(stem, array512)
        pixel = sol.window
        assert pixel.h >= stem.kernel_h
        assert pixel.w >= stem.kernel_w

    def test_folding_is_optimistic_for_strided_layers(self, array512):
        # The paper folds strided layers to stride-1 equivalents; a
        # stride-s window group really spans K + (nw-1)*s pixels, so the
        # native (exact) search can never beat the folded estimate.
        stem = ConvLayer.square(224, 7, 3, 64, stride=2, padding=3)
        native = vwsdk_solution(stem, array512).cycles
        folded = vwsdk_solution(stem.folded(), array512).cycles
        assert native >= folded

    def test_folding_gap_example(self):
        # A concrete case where the folded view understates cycles.
        layer = ConvLayer.square(48, 3, 64, 64, stride=2, padding=1)
        arr = PIMArray(256, 256)
        native = vwsdk_solution(layer, arr).cycles
        folded = vwsdk_solution(layer.folded(), arr).cycles
        assert native > folded
