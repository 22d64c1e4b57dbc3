"""Unit tests for PIMArray."""

import pytest

from repro import ConfigurationError, PIMArray
from repro.core import PAPER_ARRAY_SIZES


class TestConstruction:
    def test_basic(self):
        arr = PIMArray(512, 256)
        assert arr.rows == 512
        assert arr.cols == 256

    def test_square_helper(self):
        arr = PIMArray.square(128)
        assert (arr.rows, arr.cols) == (128, 128)
        assert arr.is_square

    def test_non_square_flag(self):
        assert not PIMArray(512, 256).is_square

    def test_cells(self):
        assert PIMArray(512, 512).cells == 262144

    def test_zero_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            PIMArray(0, 8)

    def test_negative_cols_rejected(self):
        with pytest.raises(ConfigurationError):
            PIMArray(8, -1)

    def test_non_power_of_two_accepted(self):
        # The paper writes 2^X but nothing requires powers of two.
        assert PIMArray(100, 60).cells == 6000


class TestParse:
    def test_rows_by_cols(self):
        assert PIMArray.parse("512x256") == PIMArray(512, 256)

    def test_star_separator(self):
        assert PIMArray.parse("128*64") == PIMArray(128, 64)

    def test_uppercase(self):
        assert PIMArray.parse("128X64") == PIMArray(128, 64)

    def test_single_number_is_square(self):
        assert PIMArray.parse("256") == PIMArray(256, 256)

    def test_whitespace_tolerated(self):
        assert PIMArray.parse("  64x32 ") == PIMArray(64, 32)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            PIMArray.parse("wide")

    @pytest.mark.parametrize("spec", ["5x12x", "512x", "x"])
    def test_malformed_spec_is_a_configuration_error(self, spec):
        with pytest.raises(ConfigurationError, match=repr(spec)):
            PIMArray.parse(spec)


class TestMisc:
    def test_str(self):
        assert str(PIMArray(512, 256)) == "512x256"

    def test_repr_without_name(self):
        assert repr(PIMArray(8, 4)) == "PIMArray(rows=8, cols=4)"

    def test_scaled(self):
        assert PIMArray(128, 64).scaled(2, 4) == PIMArray(256, 256)

    def test_scaled_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            PIMArray(8, 8).scaled(0, 1)

    def test_ordering(self):
        assert PIMArray(128, 128) < PIMArray(256, 256)

    def test_paper_sizes_present(self):
        labels = {str(a) for a in PAPER_ARRAY_SIZES}
        assert labels == {"128x128", "128x256", "256x256", "512x256",
                          "512x512"}

    def test_paper_sizes_count(self):
        assert len(PAPER_ARRAY_SIZES) == 5
