"""Batched network lattices: bit-identical to the per-probe path.

The DSE acceptance contract: everything read off a shared
:class:`~repro.core.sweep.NetworkLattice` — per-layer cycles, network
totals, bisection answers — must equal the per-probe ``solve()`` path
exactly, on randomized layers, arrays and strides.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import MappingEngine, register_scheme, DEFAULT_REGISTRY
from repro.core import ConvLayer, PIMArray, NetworkLattice, layer_lattice
from repro.core.lattice import window_lattice
from repro.core.types import ConfigurationError
from repro.dse import smallest_square_array
from repro.networks import Network, resnet18
from repro.search import solve

# ----------------------------------------------------------------------
# Strategies: layers include strides and padding
# ----------------------------------------------------------------------

any_layers = st.builds(
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
    st.integers(min_value=8, max_value=600),     # rows
    st.integers(min_value=4, max_value=600),     # cols
)

networks = st.lists(any_layers, min_size=1, max_size=4).map(
    lambda layers: Network.from_layers("rand", layers))


# ----------------------------------------------------------------------
# LayerLattice factoring
# ----------------------------------------------------------------------

class TestLayerLattice:
    def test_with_array_equals_full_build(self):
        layer = ConvLayer.square(14, 3, 256, 256)
        array = PIMArray.square(512)
        finished = layer_lattice(layer).with_array(array)
        direct = window_lattice(layer, array)
        for field in ("feasible", "ic_t", "oc_t", "ar", "ac", "n_pw",
                      "cycles"):
            np.testing.assert_array_equal(getattr(finished, field),
                                          getattr(direct, field))

    def test_grids_shared_across_equal_geometries(self):
        a = ConvLayer.square(14, 3, 64, 64, name="conv3_1")
        b = ConvLayer.square(14, 3, 64, 64, name="conv3_2", repeats=2)
        la, lb = layer_lattice(a), layer_lattice(b)
        assert la.area is lb.area and la.n_pw is lb.n_pw
        assert la.layer is a and lb.layer is b          # metadata rebinding
        assert lb.with_array(PIMArray.square(256)).layer is b

    def test_shared_grids_are_read_only(self):
        grids = layer_lattice(ConvLayer.square(10, 3, 8, 8))
        with pytest.raises(ValueError):
            grids.area[0, 0] = 1  # repro: noqa[REP003] — proves read-only

    @given(any_layers, arrays)
    @settings(max_examples=40, deadline=None)
    def test_strided_with_array_matches_direct(self, layer, array):
        from repro.core.lattice import window_lattice
        finished = layer_lattice(layer).with_array(array)
        direct = window_lattice(layer, array)
        np.testing.assert_array_equal(finished.cycles, direct.cycles)
        np.testing.assert_array_equal(finished.feasible, direct.feasible)


# ----------------------------------------------------------------------
# NetworkLattice vs the per-probe solve() path
# ----------------------------------------------------------------------

class TestNetworkLattice:
    @given(networks, arrays, st.sampled_from(NetworkLattice.SUPPORTED))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_solve(self, network, array, scheme):
        lattice = NetworkLattice.for_network(network, scheme)
        per_layer = [solve(layer, array, scheme).cycles for layer in network]
        assert lattice.layer_cycles(array).tolist() == per_layer
        assert lattice.network_cycles(array) == sum(per_layer)

    @given(networks, st.lists(arrays, min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_batched_equals_sequential(self, network, probe_arrays):
        lattice = NetworkLattice.for_network(network, "vw-sdk")
        batched = lattice.cycles_for(probe_arrays)
        assert batched.tolist() == [lattice.network_cycles(a)
                                    for a in probe_arrays]

    def test_paper_total(self):
        lattice = NetworkLattice.for_network(resnet18(), "vw-sdk")
        assert lattice.network_cycles(PIMArray.square(512)) == 4294

    def test_duplicate_geometries_counted_per_occurrence(self):
        layer = ConvLayer.square(14, 3, 16, 16)
        net = Network.from_layers("dup", [layer, layer.with_name("again")])
        lattice = NetworkLattice.for_network(net, "vw-sdk")
        assert lattice.num_geometries == 1
        array = PIMArray.square(128)
        assert lattice.network_cycles(array) == 2 * solve(
            layer, array, "vw-sdk").cycles

    def test_unsupported_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkLattice.for_network(resnet18(), "sdk")

    def test_empty_candidate_list(self):
        lattice = NetworkLattice.for_network(resnet18(), "vw-sdk")
        assert lattice.cycles_for([]).size == 0


# ----------------------------------------------------------------------
# Engine exposure: fast path, fallback, memoization
# ----------------------------------------------------------------------

class TestEngineSweeps:
    def test_sweep_is_memoized_per_geometry(self):
        engine = MappingEngine()
        first = engine.network_sweep(resnet18())
        assert first is not None
        assert engine.network_sweep(resnet18()) is first

    def test_non_batchable_scheme_falls_back(self):
        engine = MappingEngine()
        assert engine.network_sweep(resnet18(), "sdk") is None
        array = PIMArray.square(512)
        direct = sum(solve(layer, array, "sdk").cycles
                     for layer in resnet18())
        assert engine.network_cycles(resnet18(), array, "sdk") == direct

    def test_fallback_hits_memo_on_repeat_probes(self):
        engine = MappingEngine()
        array = PIMArray.square(512)
        engine.network_cycles(resnet18(), array, "sdk")
        before = engine.stats
        engine.network_cycles(resnet18(), array, "sdk")
        after = engine.stats
        assert after.misses == before.misses
        assert after.hits > before.hits

    def test_sweep_cycles_matches_network_cycles(self):
        engine = MappingEngine()
        probes = [PIMArray.square(s) for s in (64, 128, 256, 512)]
        for scheme in ("vw-sdk", "sdk"):
            totals = engine.sweep_cycles(resnet18(), probes, scheme)
            assert totals.tolist() == [
                engine.network_cycles(resnet18(), a, scheme) for a in probes]

    def test_replaced_solver_disables_fast_path(self):
        engine = MappingEngine()
        info = DEFAULT_REGISTRY.get("vw-sdk")
        calls = []

        def shadow(layer, array):
            calls.append(layer)
            return info.solver(layer, array)

        # A replacement that does not re-claim the "batchable"
        # capability must silently lose the fast path.
        DEFAULT_REGISTRY.register("vw-sdk", shadow, replace=True)
        try:
            assert engine.network_sweep(resnet18()) is None
            engine.network_cycles(resnet18(), PIMArray.square(512))
            assert calls  # the replacement actually ran
        finally:
            DEFAULT_REGISTRY.register(
                "vw-sdk", info.solver,
                capabilities=tuple(info.capabilities),
                summary=info.summary, replace=True)
        assert engine.network_sweep(resnet18()) is not None

    def test_unknown_scheme_fails_fast(self):
        with pytest.raises(ValueError):
            MappingEngine().network_sweep(resnet18(), "no-such-scheme")

    def test_chip_lattice_is_memoized_per_geometry(self):
        engine = MappingEngine()
        array = PIMArray.square(512)
        first = engine.chip_lattice(resnet18(), array)
        assert engine.chip_lattice(resnet18(), array) is first
        # A different array geometry gets its own lattice.
        other = engine.chip_lattice(resnet18(), PIMArray.square(256))
        assert other is not first
        assert engine.chip_lattice(resnet18(), array, "im2col") is not first

    def test_chip_sweep_matches_plan_pipeline(self):
        from repro.chip import ChipConfig, plan_pipeline
        engine = MappingEngine()
        array = PIMArray.square(512)
        counts = [23, 64, 256]
        for scheme in ("vw-sdk", "sdk"):
            sweep = engine.chip_sweep(resnet18(), array, counts, scheme)
            for index, count in enumerate(counts):
                plan = plan_pipeline(resnet18(), ChipConfig(array, count),
                                     scheme, engine=engine)
                point = sweep.outcome(index)
                assert point.bottleneck_cycles == plan.bottleneck_cycles
                assert point.arrays_used == plan.arrays_used

    def test_chip_lattice_solves_each_layer_once(self):
        engine = MappingEngine()
        array = PIMArray.square(512)
        engine.chip_lattice(resnet18(), array)
        before = engine.stats.misses
        engine.chip_sweep(resnet18(), array, [64, 128])
        assert engine.stats.misses == before  # replay, no re-solving

    def test_cache_clear_drops_chip_lattices(self):
        engine = MappingEngine()
        array = PIMArray.square(512)
        first = engine.chip_lattice(resnet18(), array)
        engine.cache_clear()
        assert engine.chip_lattice(resnet18(), array) is not first

    def test_plain_iterables_accepted_on_both_paths(self):
        engine = MappingEngine()
        layers = list(resnet18())
        array = PIMArray.square(512)
        # Generators are consumed once; bare lists lack .name metadata —
        # both must work on the fast path and the map_batch fallback.
        assert engine.network_cycles((l for l in layers), array) == 4294
        assert engine.network_cycles(layers, array, "sdk") == sum(
            solve(layer, array, "sdk").cycles for layer in layers)
        totals = engine.sweep_cycles((l for l in layers), [array], "sdk")
        assert totals.tolist() == [7240]

    def test_cache_clear_drops_sweeps(self):
        engine = MappingEngine()
        first = engine.network_sweep(resnet18())
        engine.cache_clear()
        assert engine.network_sweep(resnet18()) is not first


# ----------------------------------------------------------------------
# Bisection answers: shared lattice == per-probe reference
# ----------------------------------------------------------------------

def _reference_smallest_square(network, target, scheme, lo, hi):
    """The pre-lattice implementation: re-solve every probe."""
    engine = MappingEngine()

    def total(side):
        array = PIMArray.square(side)
        return sum(engine.solve(layer, array, scheme).cycles
                   for layer in network)

    if total(hi) > target:
        return None
    low, high = lo, hi
    while low < high:
        mid = (low + high) // 2
        if total(mid) <= target:
            high = mid
        else:
            low = mid + 1
    return PIMArray.square(low)


class TestBisectionEquivalence:
    @given(networks, st.integers(min_value=1, max_value=200000))
    @settings(max_examples=25, deadline=None)
    def test_smallest_square_array_matches_reference(self, network, target):
        from repro.dse import InfeasibleTargetError
        try:
            fast = smallest_square_array(network, target, lo=2, hi=1024)
        except InfeasibleTargetError:
            fast = None
        slow = _reference_smallest_square(network, target, "vw-sdk", 2, 1024)
        assert fast == slow

    def test_resnet_target_matches_reference(self):
        fast = smallest_square_array(resnet18(), 4294)
        slow = _reference_smallest_square(resnet18(), 4294, "vw-sdk", 8, 65536)
        assert fast == slow
