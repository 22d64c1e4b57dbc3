"""Unit tests for mapping-plan construction and validation."""

import dataclasses

import numpy as np
import pytest

from repro import ConvLayer, MappingError, PIMArray
from repro.mapping import build_plan, build_smd_plan, render_plan
from repro.search import solve


def _plan_for(scheme, layer, arr):
    return build_plan(solve(layer, arr, scheme))


class TestPlanStructure:
    def test_grid_matches_breakdown(self, resnet_l4, array512):
        sol = solve(resnet_l4, array512, "vw-sdk")
        plan = build_plan(sol)
        assert plan.ar_tiles == sol.breakdown.ar
        assert plan.ac_tiles == sol.breakdown.ac

    def test_total_cycles_matches_solution(self, resnet_l4, array512):
        for scheme in ("im2col", "sdk", "vw-sdk"):
            sol = solve(resnet_l4, array512, scheme)
            assert build_plan(sol).total_cycles == sol.cycles

    def test_positions_match_npw(self, resnet_l4, array512):
        sol = solve(resnet_l4, array512, "vw-sdk")
        plan = build_plan(sol)
        assert len(plan.origins) == sol.breakdown.n_pw

    def test_origins_inside_ifm(self, resnet_l4, array512):
        sol = solve(resnet_l4, array512, "vw-sdk")
        plan = build_plan(sol)
        for oy, ox in plan.origins:
            assert 0 <= oy <= resnet_l4.ifm_h - plan.window.h
            assert 0 <= ox <= resnet_l4.ifm_w - plan.window.w

    def test_tiles_fit_array(self, vgg_l5, array512):
        plan = _plan_for("vw-sdk", vgg_l5, array512)
        for row in plan.tiles:
            for tile in row:
                assert tile.rows_used <= array512.rows
                assert tile.cols_used <= array512.cols

    def test_validate_passes_all_schemes(self, resnet_l4, array512):
        for scheme in ("im2col", "sdk", "vw-sdk"):
            _plan_for(scheme, resnet_l4, array512).validate()

    def test_whole_channel_tiles_partition_ic(self, vgg_l5, array512):
        plan = _plan_for("vw-sdk", vgg_l5, array512)
        slices = [row[0].channel_slice for row in plan.tiles]
        assert slices[0][0] == 0
        assert slices[-1][1] == vgg_l5.in_channels
        for (a, b), (c, d) in zip(slices[:-1], slices[1:]):
            assert b == c

    def test_fine_grained_rows_cover_im2col_matrix(self, array512):
        layer = ConvLayer.square(7, 3, 512, 512)
        plan = _plan_for("im2col", layer, array512)
        total_rows = sum(row[0].rows_used for row in plan.tiles)
        assert total_rows == layer.im2col_rows


class TestWeights:
    def test_im2col_weights_are_flattened_kernel(self):
        layer = ConvLayer.square(5, 3, 2, 3)
        arr = PIMArray(32, 8)
        plan = _plan_for("im2col", layer, arr)
        kernel = np.arange(layer.weight_count, dtype=float).reshape(
            layer.out_channels, layer.in_channels, 3, 3)
        weights, mask = plan.tiles[0][0].build_weights(kernel, layer)
        assert mask.all()           # im2col: every cell in the tile used
        expected = kernel.reshape(layer.out_channels, -1).T
        np.testing.assert_array_equal(weights, expected)

    def test_vw_weights_shifted_copies(self):
        layer = ConvLayer.square(6, 3, 1, 1)
        arr = PIMArray(16, 4)
        sol = solve(layer, arr, "vw-sdk")
        plan = build_plan(sol)
        kernel = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        tile = plan.tiles[0][0]
        weights, mask = tile.build_weights(kernel, layer)
        # Every column must contain each kernel weight exactly once.
        assert (mask.sum(axis=0) == 9).all()
        col_sums = weights.sum(axis=0)
        np.testing.assert_allclose(col_sums, kernel.sum())

    def test_used_cells_matches_mask(self, resnet_l4, array512):
        plan = _plan_for("vw-sdk", resnet_l4, array512)
        kernel = np.ones((resnet_l4.out_channels, resnet_l4.in_channels,
                          3, 3))
        tile = plan.tiles[0][0]
        _, mask = tile.build_weights(kernel, resnet_l4)
        assert tile.used_cells(resnet_l4) == int(mask.sum())

    def test_mask_footprint_per_column(self, vgg_l5, array512):
        plan = _plan_for("vw-sdk", vgg_l5, array512)
        tile = plan.tiles[0][0]   # full 42-channel tile
        kernel = np.ones((vgg_l5.out_channels, vgg_l5.in_channels, 3, 3))
        _, mask = tile.build_weights(kernel, vgg_l5)
        assert (mask.sum(axis=0) == 9 * 42).all()


def _oracle_weights(tile, kernel, layer):
    """Cell-by-cell weights: ``W[oc, c, py - wy*s, px - wx*s]`` when that
    kernel coordinate exists, else an unmapped zero cell."""
    c0, _ = tile.channel_slice
    o0, _ = tile.oc_slice
    weights = np.zeros((tile.rows_used, tile.cols_used), dtype=kernel.dtype)
    mask = np.zeros(weights.shape, dtype=bool)
    for r, (c, py, px) in enumerate(tile.row_desc):
        for q, (oc, wy, wx) in enumerate(tile.col_desc):
            ky, kx = py - wy * layer.stride, px - wx * layer.stride
            if 0 <= ky < layer.kernel_h and 0 <= kx < layer.kernel_w:
                weights[r, q] = kernel[o0 + oc, c0 + c, ky, kx]
                mask[r, q] = True
    return weights, mask


ORACLE_PLANS = [
    ("im2col", ConvLayer.square(6, 3, 7, 5), PIMArray(40, 3)),
    ("sdk", ConvLayer.square(7, 3, 5, 4), PIMArray(64, 16)),
    ("vw-sdk", ConvLayer.square(8, 3, 6, 9), PIMArray(64, 24)),
    ("vw-sdk", ConvLayer(ifm_h=9, ifm_w=12, kernel_h=2, kernel_w=4,
                         in_channels=3, out_channels=9), PIMArray(40, 24)),
    ("vw-sdk", ConvLayer.square(7, 3, 12, 8), PIMArray(30, 10)),
]


class TestWeightsOracle:
    """``build_weights`` reads its index tables; every tile of every
    builder must still equal the cell-by-cell definition."""

    @staticmethod
    def _check(plan, layer, rng):
        kernel = rng.normal(size=(layer.out_channels, layer.in_channels,
                                  layer.kernel_h, layer.kernel_w))
        for row in plan.tiles:
            for tile in row:
                weights, mask = tile.build_weights(kernel, layer)
                want_w, want_m = _oracle_weights(tile, kernel, layer)
                np.testing.assert_array_equal(mask, want_m)
                np.testing.assert_array_equal(weights, want_w)
                assert weights.dtype == kernel.dtype
                assert tile.used_cells(layer) == int(want_m.sum())

    @pytest.mark.parametrize("scheme,layer,arr", ORACLE_PLANS)
    def test_builders_match_oracle(self, scheme, layer, arr, rng):
        self._check(_plan_for(scheme, layer, arr), layer, rng)

    def test_strided_plan_matches_oracle(self, rng):
        layer = ConvLayer.square(11, 3, 4, 6, stride=2, padding=1)
        plan = _plan_for("vw-sdk", layer, PIMArray(64, 32))
        assert plan.window.area > layer.kernel_area  # >1 kernel per window
        self._check(plan, layer, rng)

    def test_rejects_kernel_of_another_layer(self, resnet_l4, array512):
        tile = _plan_for("vw-sdk", resnet_l4, array512).tiles[0][0]
        with pytest.raises(MappingError):
            tile.build_weights(np.ones((2, 2, 3, 3)), resnet_l4)


class TestOutputCover:
    def test_missing_group_is_caught(self, resnet_l4, array512):
        plan = _plan_for("vw-sdk", resnet_l4, array512)
        broken = dataclasses.replace(
            plan, group_origins=plan.group_origins[:-1])
        with pytest.raises(MappingError, match="covers"):
            broken.validate()

    def test_group_outside_ofm_is_caught(self, resnet_l4, array512):
        plan = _plan_for("vw-sdk", resnet_l4, array512)
        gy, gx = plan.group_origins[-1]
        broken = dataclasses.replace(
            plan, group_origins=plan.group_origins + ((gy + 1, gx),))
        with pytest.raises(MappingError):
            broken.validate()


class TestSMDPlan:
    def test_cycles_match(self):
        layer = ConvLayer.square(8, 3, 3, 8)
        sol = solve(layer, PIMArray(128, 64), "smd")
        plan = build_smd_plan(sol)
        assert plan.total_cycles == sol.cycles

    def test_groups_cover_all_windows(self):
        layer = ConvLayer.square(8, 3, 3, 8)
        sol = solve(layer, PIMArray(128, 64), "smd")
        plan = build_smd_plan(sol)
        seen = {w for group in plan.window_groups for w in group}
        assert seen == set(range(layer.num_windows))

    def test_block_diagonal_weights(self):
        layer = ConvLayer.square(8, 3, 3, 8)
        sol = solve(layer, PIMArray(128, 64), "smd")
        plan = build_smd_plan(sol)
        kernel = np.ones((8, 3, 3, 3))
        weights, mask = plan.build_weights(kernel)
        assert weights.shape == (4 * 27, 4 * 8)
        # Off-diagonal blocks are empty.
        assert weights[0:27, 8:].sum() == 0
        assert mask[0:27, 0:8].all()

    def test_rejects_non_smd_solution(self, resnet_l4, array512):
        with pytest.raises(MappingError):
            build_smd_plan(solve(resnet_l4, array512, "vw-sdk"))

    def test_build_plan_rejects_duplicated_smd(self):
        layer = ConvLayer.square(8, 3, 3, 8)
        sol = solve(layer, PIMArray(128, 64), "smd")
        with pytest.raises(MappingError):
            build_plan(sol)


class TestAsciiArt:
    def test_render_small_plan(self):
        layer = ConvLayer.square(6, 3, 2, 2)
        plan = _plan_for("vw-sdk", layer, PIMArray(40, 24))
        text = render_plan(plan)
        assert "vw-sdk layout" in text
        assert "." in text    # idle cells visible

    def test_render_too_large_tile_raises(self, vgg_l5, array512):
        from repro.mapping import render_tile
        plan = _plan_for("vw-sdk", vgg_l5, array512)
        with pytest.raises(MappingError):
            render_tile(plan, plan.tiles[0][0])

    def test_render_im2col_has_no_idle_cells(self):
        layer = ConvLayer.square(5, 3, 2, 2)
        plan = _plan_for("im2col", layer, PIMArray(32, 8))
        body = render_plan(plan).splitlines()
        cell_lines = [ln for ln in body if ln.strip().startswith("c")]
        assert cell_lines
        assert not any("." in ln.split()[-1] for ln in cell_lines)
