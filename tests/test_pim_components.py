"""Unit tests for crossbar, ADC/DAC, noise and reference components."""

import numpy as np
import pytest

from repro import ConfigurationError, MappingError, PIMArray
from repro.pim import (
    ComposedNoise,
    Crossbar,
    IdealADC,
    IdealDAC,
    LinearADC,
    LognormalNoise,
    NoNoise,
    StuckCells,
    UniformDAC,
    conv2d_naive,
    conv2d_reference,
    make_noise,
)


class TestReferenceConv:
    def test_known_value(self):
        ifm = np.arange(16, dtype=float).reshape(1, 4, 4)
        kernel = np.ones((1, 1, 2, 2))
        out = conv2d_reference(ifm, kernel)
        assert out[0, 0, 0] == 10.0
        assert out.shape == (1, 3, 3)

    def test_matches_naive(self, rng):
        ifm = rng.integers(-3, 4, (3, 7, 9)).astype(float)
        kernel = rng.integers(-3, 4, (5, 3, 3, 2)).astype(float)
        np.testing.assert_array_equal(conv2d_reference(ifm, kernel),
                                      conv2d_naive(ifm, kernel))

    def test_matches_naive_strided_padded(self, rng):
        ifm = rng.integers(-3, 4, (2, 9, 9)).astype(float)
        kernel = rng.integers(-3, 4, (4, 2, 3, 3)).astype(float)
        np.testing.assert_array_equal(
            conv2d_reference(ifm, kernel, stride=2, padding=1),
            conv2d_naive(ifm, kernel, stride=2, padding=1))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            conv2d_reference(np.zeros((2, 5, 5)), np.zeros((1, 3, 3, 3)))

    def test_bad_rank_rejected(self):
        with pytest.raises(ConfigurationError):
            conv2d_reference(np.zeros((5, 5)), np.zeros((1, 1, 3, 3)))


class TestCrossbar:
    def test_program_and_compute(self):
        xbar = Crossbar(PIMArray(4, 3))
        xbar.program(np.arange(12, dtype=float).reshape(4, 3))
        out = xbar.compute(np.ones(4))
        np.testing.assert_array_equal(out, [18.0, 22.0, 26.0])

    def test_batch_compute(self):
        xbar = Crossbar(PIMArray(2, 2))
        xbar.program(np.eye(2))
        out = xbar.compute(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out, [[1, 2], [3, 4]])

    def test_partial_programming(self):
        xbar = Crossbar(PIMArray(8, 8))
        xbar.program(np.ones((3, 2)))
        assert xbar.active_shape == (3, 2)
        assert xbar.compute(np.ones(3)).shape == (2,)

    def test_oversize_weights_rejected(self):
        xbar = Crossbar(PIMArray(2, 2))
        with pytest.raises(MappingError):
            xbar.program(np.ones((3, 2)))

    def test_compute_before_program_rejected(self):
        with pytest.raises(MappingError):
            Crossbar(PIMArray(2, 2)).compute(np.ones(2))

    def test_wrong_input_length_rejected(self):
        xbar = Crossbar(PIMArray(4, 2))
        xbar.program(np.ones((4, 2)))
        with pytest.raises(ConfigurationError):
            xbar.compute(np.ones(3))

    def test_program_count(self):
        xbar = Crossbar(PIMArray(2, 2))
        xbar.program(np.ones((2, 2)))
        xbar.program(np.ones((2, 2)))
        assert xbar.program_count == 2

    def test_noise_applied_at_program_time(self):
        xbar = Crossbar(PIMArray(2, 2), noise=LognormalNoise(0.3), seed=7)
        xbar.program(np.ones((2, 2)))
        out1 = xbar.compute(np.ones(2))
        out2 = xbar.compute(np.ones(2))
        np.testing.assert_array_equal(out1, out2)   # frozen until reprogram
        assert not np.allclose(out1, [2.0, 2.0])


class TestConverters:
    def test_ideal_dac_passthrough(self):
        x = np.array([0.1, -2.3])
        np.testing.assert_array_equal(IdealDAC().convert(x), x)

    def test_uniform_dac_one_bit_is_sign_driver(self):
        dac = UniformDAC(bits=1, full_scale=1.0)
        np.testing.assert_array_equal(
            dac.convert(np.array([0.9, -0.2, 0.2])), [1.0, -1.0, 1.0])

    def test_uniform_dac_clips(self):
        dac = UniformDAC(bits=4, full_scale=1.0)
        assert dac.convert(np.array([5.0]))[0] == 1.0

    def test_uniform_dac_error_bounded_by_half_step(self, rng):
        dac = UniformDAC(bits=6, full_scale=1.0)
        x = rng.uniform(-1, 1, 100)
        assert np.abs(dac.convert(x) - x).max() <= dac.step / 2 + 1e-12

    def test_dac_levels(self):
        assert UniformDAC(bits=3).levels == 8

    def test_dac_validation(self):
        with pytest.raises(ConfigurationError):
            UniformDAC(bits=0)

    def test_ideal_adc_passthrough(self):
        y = np.array([1.5, -0.5])
        adc = IdealADC()
        np.testing.assert_array_equal(adc.convert(y), y)
        assert adc.saturation_events == 0

    def test_linear_adc_quantises(self):
        adc = LinearADC(bits=8, full_scale=64.0)
        y = adc.convert(np.array([10.3]))
        assert abs(y[0] - 10.3) <= adc.step / 2

    def test_linear_adc_counts_saturation(self):
        adc = LinearADC(bits=4, full_scale=1.0)
        adc.convert(np.array([2.0, 0.5, -3.0]))
        assert adc.saturation_events == 2
        adc.reset()
        assert adc.saturation_events == 0

    def test_adc_validation(self):
        with pytest.raises(ConfigurationError):
            LinearADC(bits=8, full_scale=-1.0)


class TestNoise:
    def test_no_noise(self):
        w = np.ones((2, 2))
        out = NoNoise().apply(w, np.ones_like(w, bool),
                              np.random.default_rng(0))
        np.testing.assert_array_equal(out, w)

    def test_lognormal_only_touches_masked(self):
        w = np.ones((2, 2))
        mask = np.array([[True, False], [False, True]])
        out = LognormalNoise(0.5).apply(w, mask, np.random.default_rng(0))
        assert out[0, 1] == 1.0 and out[1, 0] == 1.0
        assert out[0, 0] != 1.0 or out[1, 1] != 1.0

    def test_lognormal_sigma_zero_is_identity(self):
        w = np.ones((3, 3))
        out = LognormalNoise(0.0).apply(w, np.ones_like(w, bool),
                                        np.random.default_rng(0))
        np.testing.assert_array_equal(out, w)

    def test_stuck_cells_fraction(self):
        w = np.ones((100, 100))
        out = StuckCells(0.2).apply(w, np.ones_like(w, bool),
                                    np.random.default_rng(0))
        frac = (out == 0).mean()
        assert 0.15 < frac < 0.25

    def test_stuck_validation(self):
        with pytest.raises(ConfigurationError):
            StuckCells(1.5)

    def test_composed(self):
        noise = ComposedNoise((LognormalNoise(0.1), StuckCells(0.5)))
        w = np.ones((50, 50))
        out = noise.apply(w, np.ones_like(w, bool),
                          np.random.default_rng(0))
        assert (out == 0).any()

    def test_make_noise_factory(self):
        assert isinstance(make_noise(), NoNoise)
        assert isinstance(make_noise(sigma=0.1), LognormalNoise)
        assert isinstance(make_noise(sigma=0.1, stuck=0.1), ComposedNoise)
