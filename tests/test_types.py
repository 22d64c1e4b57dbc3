"""Unit tests for repro.core.types."""

import math

import pytest

from repro.core.types import (
    ConfigurationError,
    as_pair,
    ceil_div,
    require_non_negative_int,
    require_positive_int,
)


class TestCeilDiv:
    def test_exact_division(self):
        assert ceil_div(8, 2) == 4

    def test_rounds_up(self):
        assert ceil_div(7, 2) == 4

    def test_one_over_large(self):
        assert ceil_div(1, 1000) == 1

    def test_zero_numerator(self):
        assert ceil_div(0, 5) == 0

    def test_paper_resnet_l5_im2col(self):
        # ceil(3*3*512 / 512) = 9 — the Table I subtlety.
        assert ceil_div(3 * 3 * 512, 512) == 9

    def test_paper_resnet_l4_whole_channel(self):
        # ceil(256 / 42) = 7 — VW-SDK layer 4.
        assert ceil_div(256, 42) == 7

    def test_large_values_exact(self):
        # Would fail with float math: 10**17 + 1 is not float-exact.
        big = 10 ** 17 + 1
        assert ceil_div(big, 1) == big

    def test_zero_denominator_rejected(self):
        with pytest.raises(ConfigurationError):
            ceil_div(1, 0)

    def test_negative_denominator_rejected(self):
        with pytest.raises(ConfigurationError):
            ceil_div(1, -2)

    def test_negative_numerator_rejected(self):
        with pytest.raises(ConfigurationError):
            ceil_div(-1, 2)


class TestRequirePositiveInt:
    def test_plain_int(self):
        assert require_positive_int("x", 7) == 7

    def test_integral_float_accepted(self):
        assert require_positive_int("x", 7.0) == 7

    def test_fractional_float_rejected(self):
        with pytest.raises(ConfigurationError):
            require_positive_int("x", 7.5)

    def test_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            require_positive_int("x", 0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            require_positive_int("x", -3)

    def test_bool_rejected(self):
        with pytest.raises(ConfigurationError):
            require_positive_int("x", True)

    def test_string_rejected(self):
        # Numeric strings too: nothing on the wire is coerced.
        for text in ("three", "7", b"7"):
            with pytest.raises(ConfigurationError):
                require_positive_int("x", text)

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            require_positive_int("x", math.nan)

    def test_error_mentions_name(self):
        with pytest.raises(ConfigurationError, match="rows"):
            require_positive_int("rows", -1)


class TestRequireNonNegativeInt:
    def test_zero_ok(self):
        assert require_non_negative_int("pad", 0) == 0

    def test_positive_ok(self):
        assert require_non_negative_int("pad", 3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            require_non_negative_int("pad", -1)


class TestAsPair:
    def test_scalar_duplicates(self):
        assert as_pair("k", 3) == (3, 3)

    def test_tuple_passthrough(self):
        assert as_pair("k", (3, 5)) == (3, 5)

    def test_list_accepted(self):
        assert as_pair("k", [2, 4]) == (2, 4)

    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigurationError):
            as_pair("k", (1, 2, 3))

    def test_non_positive_member_rejected(self):
        with pytest.raises(ConfigurationError):
            as_pair("k", (3, 0))
