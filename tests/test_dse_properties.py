"""Monotonicity and equivalence invariants the DSE layer relies on.

``smallest_square_array`` bisects over the array side, exact only
because cycles are monotone non-increasing in rows and columns; the
greedy's bottleneck is monotone in the array budget too.  The
requirements docstrings claim it — these properties pin it, over
randomized layers *including strided and padded ones*.

``ChipLattice`` replays the pipeline greedy from precomputed merged
staircases; the equivalence properties here pin it **bit-identical**
to the per-probe ``heapq`` greedy — bottleneck, fill latency and
arrays used — over random networks (repeats included), schemes, array
shapes and probe grids, through its one replay, ``sweep`` (which
``outcome`` wraps).  ``frontier_sweep`` reads the Pareto breakpoints
off the closed form instead and must equal that replay at the same
budgets, field for field.  ``smallest_chip`` sizes a chip in closed
form; its property bisects the ``heapq`` greedy itself (licensed by
the monotonicity above) and must land on the same count.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chip import ChipConfig, ChipLattice, plan_pipeline
from repro.chip.pipeline import InsufficientArraysError
from repro.core import ConvLayer, CostParams, PIMArray
from repro.dse import InfeasibleTargetError, network_cycles, smallest_chip
from repro.networks import Network
from repro.search import solve

layers = st.builds(
    ConvLayer.square,
    st.integers(min_value=4, max_value=18),      # ifm
    st.integers(min_value=1, max_value=4),       # kernel
    st.integers(min_value=1, max_value=24),      # ic
    st.integers(min_value=1, max_value=24),      # oc
    stride=st.integers(min_value=1, max_value=3),
    padding=st.integers(min_value=0, max_value=2),
).filter(lambda l: l.kernel_h <= l.ifm_h)

arrays = st.builds(
    PIMArray,
    st.integers(min_value=8, max_value=400),     # rows
    st.integers(min_value=4, max_value=400),     # cols
)

networks = st.lists(layers, min_size=1, max_size=3).map(
    lambda ls: Network.from_layers("rand", ls))

growth = st.integers(min_value=1, max_value=300)

#: The schemes the bisections default to / fall back through.
SCHEMES = ("vw-sdk", "im2col")


@given(layers, arrays, growth, st.sampled_from(SCHEMES))
@settings(max_examples=60, deadline=None)
def test_cycles_non_increasing_in_rows(layer, array, extra, scheme):
    taller = PIMArray(array.rows + extra, array.cols)
    assert (solve(layer, taller, scheme).cycles
            <= solve(layer, array, scheme).cycles)


@given(layers, arrays, growth, st.sampled_from(SCHEMES))
@settings(max_examples=60, deadline=None)
def test_cycles_non_increasing_in_cols(layer, array, extra, scheme):
    wider = PIMArray(array.rows, array.cols + extra)
    assert (solve(layer, wider, scheme).cycles
            <= solve(layer, array, scheme).cycles)


@given(networks, st.integers(min_value=8, max_value=300), growth)
@settings(max_examples=40, deadline=None)
def test_network_cycles_non_increasing_in_square_side(network, side, extra):
    assert (network_cycles(network, PIMArray.square(side + extra))
            <= network_cycles(network, PIMArray.square(side)))


@given(networks, st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=32))
@settings(max_examples=40, deadline=None)
def test_bottleneck_non_increasing_in_array_count(network, count, extra):
    array = PIMArray.square(256)

    def bottleneck(num_arrays):
        try:
            return plan_pipeline(network, ChipConfig(array, num_arrays)
                                 ).bottleneck_cycles
        except InsufficientArraysError:
            return None

    base = bottleneck(count)
    bigger = bottleneck(count + extra)
    if base is not None:
        assert bigger is not None and bigger <= base


# ----------------------------------------------------------------------
# ChipLattice vs the per-probe heapq greedy
# ----------------------------------------------------------------------

#: Networks whose layers carry block repeats too — the replica step
#: cost ``tiles * repeats`` must match the greedy's.
repeated_networks = st.lists(
    st.tuples(layers, st.integers(min_value=1, max_value=3)),
    min_size=1, max_size=4,
).map(lambda pairs: Network.from_layers(
    "rand", [dataclasses.replace(layer, repeats=reps)
             for layer, reps in pairs]))

probe_grids = st.lists(st.integers(min_value=1, max_value=1 << 14),
                       min_size=1, max_size=8)


def _greedy_outcome(network, array, count, scheme):
    try:
        plan = plan_pipeline(network, ChipConfig(array, count), scheme)
    except InsufficientArraysError:
        return None
    return (plan.bottleneck_cycles, plan.fill_latency_cycles,
            plan.arrays_used)


@given(repeated_networks, arrays, probe_grids, st.sampled_from(SCHEMES))
@settings(max_examples=50, deadline=None)
def test_chip_lattice_bit_identical_to_greedy(network, array, counts,
                                              scheme):
    lattice = ChipLattice.for_network(network, array, scheme)
    sweep = lattice.sweep(counts)
    for index, count in enumerate(counts):
        reference = _greedy_outcome(network, array, count, scheme)
        vec = sweep.outcome(index)
        scalar = lattice.outcome(count)
        for got in (vec, scalar):
            if reference is None:
                assert got is None
            else:
                assert (got.bottleneck_cycles, got.fill_latency_cycles,
                        got.arrays_used) == reference


#: ``frontier_sweep`` caps: none, just below the residency floor (an
#: empty frontier), or a random budget.
frontier_caps = st.one_of(st.none(), st.just("below floor"),
                          st.integers(min_value=1, max_value=1 << 14))


@given(repeated_networks, arrays, frontier_caps, st.sampled_from(SCHEMES),
       st.booleans())
@settings(max_examples=50, deadline=None)
def test_frontier_sweep_equals_replay_at_frontier_counts(
        network, array, cap, scheme, costed):
    lattice = ChipLattice.for_network(
        network, array, scheme,
        cost_params=CostParams() if costed else None)
    if cap == "below floor":
        cap = lattice.floor_arrays - 1
    closed = lattice.frontier_sweep(cap)
    replay = lattice.sweep(lattice.frontier_counts(cap))
    for name in [f.name for f in dataclasses.fields(replay)]:
        got, want = getattr(closed, name), getattr(replay, name)
        if want is None:
            assert got is None, name
            continue
        assert got.dtype == want.dtype, name
        assert got.tolist() == want.tolist(), name
    # Each breakpoint buys a strictly smaller bottleneck.
    assert (np.diff(closed.bottleneck_cycles) < 0).all()


@given(repeated_networks, arrays, st.integers(min_value=1, max_value=512),
       st.integers(min_value=1, max_value=256))
@settings(max_examples=50, deadline=None)
def test_chip_lattice_bottleneck_monotone_in_count(network, array, count,
                                                   extra):
    lattice = ChipLattice.for_network(network, array)
    base = lattice.bottleneck_at(count)
    bigger = lattice.bottleneck_at(count + extra)
    if base is not None:
        assert bigger is not None and bigger <= base


# ----------------------------------------------------------------------
# Closed-form chip sizing vs a bisection of the heapq greedy
# ----------------------------------------------------------------------

@given(repeated_networks, arrays, st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=4096))
@settings(max_examples=60, deadline=None)
def test_smallest_chip_matches_greedy_bisection(network, array, target,
                                                max_arrays):
    def bottleneck(count):
        outcome = _greedy_outcome(network, array, count, "vw-sdk")
        return None if outcome is None else outcome[0]

    top = bottleneck(max_arrays)
    if top is None or top > target:
        with pytest.raises(InfeasibleTargetError) as info:
            smallest_chip(network, array, target, max_arrays=max_arrays)
        assert info.value.best == top
        return
    low, high = 1, max_arrays
    while low < high:
        mid = (low + high) // 2
        value = bottleneck(mid)
        if value is not None and value <= target:
            high = mid
        else:
            low = mid + 1
    chip = smallest_chip(network, array, target, max_arrays=max_arrays)
    assert chip == ChipConfig(array, low)
