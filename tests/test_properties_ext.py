"""Property-based tests for the extension modules.

Mirrors ``test_properties.py`` for the beyond-paper systems:
differential encoding, bit-slicing, grouped execution, and the chip
allocator.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConvLayer, PIMArray
from repro.chip.allocation import allocate_layer
from repro.core.grouped import grouped_mapping
from repro.pim import (
    DifferentialCrossbar,
    grouped_conv2d_reference,
    run_grouped,
    sliced_mvm,
)
from repro.search import vwsdk_solution

# ----------------------------------------------------------------------
# Differential encoding
# ----------------------------------------------------------------------

@given(st.integers(1, 12), st.integers(1, 6),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_differential_mvm_always_exact(rows, cols, seed):
    rng = np.random.default_rng(seed)
    w = rng.integers(-9, 10, (rows, cols)).astype(float)
    x = rng.integers(-9, 10, rows).astype(float)
    xbar = DifferentialCrossbar(PIMArray(rows, 2 * cols))
    xbar.program(w)
    assert (xbar.conductances >= 0).all()
    np.testing.assert_array_equal(xbar.compute(x), x @ w)


# ----------------------------------------------------------------------
# Bit-slicing
# ----------------------------------------------------------------------

@given(st.integers(1, 16), st.integers(1, 8), st.integers(1, 8),
       st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_bitsliced_mvm_always_exact(rows, cols, weight_bits, cell_bits,
                                    seed):
    rng = np.random.default_rng(seed)
    top = (1 << weight_bits) - 1
    w = rng.integers(-top, top + 1, (rows, cols))
    x = rng.integers(-7, 8, rows)
    np.testing.assert_array_equal(
        sliced_mvm(w, x, weight_bits, cell_bits), x @ w)


# ----------------------------------------------------------------------
# Grouped convolution execution
# ----------------------------------------------------------------------

@given(st.sampled_from([2, 4]), st.integers(6, 10),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_grouped_execution_always_exact(groups, ifm, seed):
    rng = np.random.default_rng(seed)
    ic = 2 * groups
    oc = 2 * groups
    mapping = grouped_mapping(ifm, 3, ic, oc, groups=groups,
                              array=PIMArray(96, 48))
    x = rng.integers(-3, 4, (ic, ifm, ifm)).astype(float)
    w = rng.integers(-3, 4, (oc, ic // groups, 3, 3)).astype(float)
    result = run_grouped(mapping, x, w)
    np.testing.assert_array_equal(
        result.ofm, grouped_conv2d_reference(x, w, groups))
    assert result.cycles == mapping.cycles


# ----------------------------------------------------------------------
# Chip allocation
# ----------------------------------------------------------------------

@given(st.integers(4, 16), st.integers(1, 8), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_allocation_latency_monotone_in_arrays(ifm, channels, arrays):
    layer = ConvLayer.square(max(ifm, 4), 3, channels, channels)
    solution = vwsdk_solution(layer, PIMArray(64, 32))
    lat = allocate_layer(solution, arrays).latency_cycles
    lat_more = allocate_layer(solution, arrays + 1).latency_cycles
    assert lat_more <= lat
    # One array reproduces the paper's single-array cycle count.
    assert allocate_layer(solution, 1).latency_cycles == solution.cycles
