"""Unit tests for grouped conv and device presets."""

import pytest

from repro import (
    ConvLayer,
    DEVICE_PRESETS,
    PIMArray,
    depthwise_mapping,
    grouped_mapping,
    preset,
)
from repro.core.types import ConfigurationError
from repro.search import vwsdk_solution


class TestGroupedConv:
    def test_channels_must_divide(self):
        with pytest.raises(ConfigurationError):
            grouped_mapping(14, 3, 60, 64, groups=8,
                            array=PIMArray.square(512))

    def test_groups_one_matches_plain(self):
        arr = PIMArray.square(512)
        m = grouped_mapping(14, 3, 64, 64, groups=1, array=arr)
        plain = vwsdk_solution(ConvLayer.square(14, 3, 64, 64), arr)
        assert m.cycles == plain.cycles

    def test_packed_never_worse_than_sequential(self):
        arr = PIMArray.square(512)
        for groups in (2, 4, 8, 16):
            m = grouped_mapping(16, 3, 32, 32, groups=groups, array=arr)
            assert m.packed_cycles <= m.sequential_cycles

    def test_depthwise_is_group_per_channel(self):
        m = depthwise_mapping(14, 3, 64, PIMArray.square(512))
        assert m.groups == 64
        assert m.layer.in_channels == 1

    def test_depthwise_packing_essential(self):
        m = depthwise_mapping(14, 3, 64, PIMArray.square(512))
        assert m.packing_speedup >= 2.0

    def test_joint_search_beats_naive_packing(self):
        arr = PIMArray.square(512)
        joint = grouped_mapping(14, 3, 64, 64, groups=64, array=arr,
                                optimize_packing=True)
        naive = grouped_mapping(14, 3, 64, 64, groups=64, array=arr,
                                optimize_packing=False)
        assert joint.packed_cycles <= naive.packed_cycles

    def test_vw_beats_im2col_on_depthwise(self):
        arr = PIMArray.square(512)
        vw = depthwise_mapping(14, 3, 64, arr, scheme="vw-sdk")
        im = depthwise_mapping(14, 3, 64, arr, scheme="im2col")
        assert vw.cycles < im.cycles


class TestDevicePresets:
    def test_known_presets(self):
        assert set(DEVICE_PRESETS) == {"rram-isaac", "rram-lite",
                                       "sram-cim"}

    def test_preset_lookup(self):
        assert preset("rram-isaac").adc_energy_pj == 2.0

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown device preset"):
            preset("quantum")

    def test_sram_faster_than_rram(self):
        assert (preset("sram-cim").cycle_time_ns
                < preset("rram-isaac").cycle_time_ns)

    def test_presets_usable_in_cost_model(self):
        from repro import cost_report
        sol = vwsdk_solution(ConvLayer.square(14, 3, 256, 256),
                             PIMArray.square(512))
        for name in DEVICE_PRESETS:
            rep = cost_report(sol, preset(name))
            assert rep.total_energy_nj > 0
