"""Property tests pinning the chip frontier to the scalar oracles.

``chip_pareto`` prices whole deployment frontiers from batched
:class:`~repro.chip.sweep.ChipLattice` replays over closed-form
breakpoint budgets.  Three families of invariants keep it honest, over
randomized networks (strides, padding and block repeats included),
geometry pools and schemes:

* **dominance** — the heterogeneous-pool frontier (``pools=True``)
  dominates-or-equals the homogeneous one point for point, because the
  homogeneous plans are always in the candidate union;
* **oracle replay** — every frontier point is reproduced *bit-
  identically* by the scalar path: a ``plan_pipeline`` ``heapq`` greedy
  run at the point's array count plus per-stage
  :func:`~repro.core.cost.cost_report` pricing (``math.fsum``) must
  give the same bottleneck, arrays, cells, energy and latency;
* **canonicality** — the frontier is invariant to layer order and to
  whether repeated blocks are grouped (``repeats=r``) or unrolled into
  ``r`` stages, since breakpoint budgets and greedy outcomes at those
  budgets are closed-form in the per-stage staircases.
"""

import dataclasses
import math

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.chip import ChipConfig, plan_pipeline
from repro.core import ConvLayer, CostParams, PIMArray, cost_report
from repro.dse import InfeasibleTargetError, chip_pareto
from repro.networks import Network

layers = st.builds(
    ConvLayer.square,
    st.integers(min_value=4, max_value=14),      # ifm
    st.integers(min_value=1, max_value=4),       # kernel
    st.integers(min_value=1, max_value=16),      # ic
    st.integers(min_value=1, max_value=16),      # oc
    stride=st.integers(min_value=1, max_value=2),
    padding=st.integers(min_value=0, max_value=1),
).filter(lambda l: l.kernel_h <= l.ifm_h)

networks = st.lists(layers, min_size=1, max_size=3).map(
    lambda ls: Network.from_layers("rand", ls))

#: Geometry ladder pools are drawn from: small enough that residency
#: floors stay tiny, varied enough (non-square included) that best-fit
#: assignments actually mix.
GEOMETRIES = (PIMArray(16, 16), PIMArray(24, 48), PIMArray(32, 32),
              PIMArray(64, 24), PIMArray(64, 64), PIMArray(128, 48),
              PIMArray(128, 128))

pools = st.lists(st.sampled_from(GEOMETRIES), min_size=2, max_size=3,
                 unique=True)

SCHEMES = ("vw-sdk", "im2col")

#: Deliberately non-default constants, so any path that silently falls
#: back to DEFAULT_COST_PARAMS breaks these tests.
PARAMS = CostParams(cycle_time_ns=80.0, adc_energy_pj=3.0,
                    dac_energy_pj=0.125, cell_energy_pj=0.002)


def _frontier(network, pool, scheme, *, pools_flag):
    try:
        return chip_pareto(network, pool, scheme, pools=pools_flag,
                           cost_params=PARAMS)
    except InfeasibleTargetError:
        return None


def _signature(front):
    """Order-independent frontier fingerprint (exact floats)."""
    return sorted((p.pool, p.num_arrays, p.cells, p.energy_nj,
                   p.bottleneck_cycles, p.latency_us) for p in front)


@given(networks, pools, st.sampled_from(SCHEMES))
@settings(max_examples=40, deadline=None)
def test_pool_frontier_dominates_homogeneous(network, pool, scheme):
    homogeneous = _frontier(network, pool, scheme, pools_flag=False)
    assume(homogeneous is not None)
    heterogeneous = _frontier(network, pool, scheme, pools_flag=True)
    assert heterogeneous is not None
    for point in homogeneous:
        assert any(
            q.cells <= point.cells
            and q.energy_nj <= point.energy_nj
            and q.bottleneck_cycles <= point.bottleneck_cycles
            for q in heterogeneous), (
            f"homogeneous point {point.objectives} undominated")


@given(networks, pools, st.sampled_from(SCHEMES))
@settings(max_examples=40, deadline=None)
def test_frontier_points_replay_bit_identical(network, pool, scheme):
    front = _frontier(network, pool, scheme, pools_flag=True)
    assume(front is not None)
    for point in front:
        solutions = list(point.solutions)
        chip = ChipConfig(solutions[0].array, point.num_arrays)
        plan = plan_pipeline(network, chip, scheme, solutions=solutions)
        # The breakpoint budgets are exact: the greedy spends them fully.
        assert plan.arrays_used == point.num_arrays
        assert plan.bottleneck_cycles == point.bottleneck_cycles
        # Scalar per-stage cost_report pricing: the correctly-rounded
        # sum of the exact per-repeat terms (never pre-rounded * r).
        energy = math.fsum(
            cost_report(sol, PARAMS).compute_energy_nj
            for sol in solutions for _ in range(sol.layer.repeats))
        assert point.energy_nj == energy
        assert point.latency_us == \
            plan.bottleneck_cycles * PARAMS.cycle_time_ns / 1000.0
        cells = sum(a.arrays * a.solution.layer.repeats
                    * a.solution.array.cells for a in plan.allocations)
        assert point.cells == cells


@given(networks, pools, st.sampled_from(SCHEMES))
@settings(max_examples=30, deadline=None)
def test_frontier_invariant_to_layer_order(network, pool, scheme):
    front = _frontier(network, pool, scheme, pools_flag=True)
    assume(front is not None)
    reversed_network = Network.from_layers("rand-rev",
                                           list(network)[::-1])
    front_rev = _frontier(reversed_network, pool, scheme, pools_flag=True)
    assert front_rev is not None
    assert _signature(front) == _signature(front_rev)


@given(st.lists(st.tuples(layers, st.integers(min_value=1, max_value=3)),
                min_size=1, max_size=2),
       pools, st.sampled_from(SCHEMES))
@settings(max_examples=30, deadline=None)
def test_frontier_invariant_to_repeat_grouping(pairs, pool, scheme):
    grouped = Network.from_layers(
        "grouped", [dataclasses.replace(layer, repeats=reps)
                    for layer, reps in pairs])
    unrolled = Network.from_layers(
        "unrolled", [dataclasses.replace(layer, repeats=1)
                     for layer, reps in pairs for _ in range(reps)])
    front = _frontier(grouped, pool, scheme, pools_flag=True)
    assume(front is not None)
    front_unrolled = _frontier(unrolled, pool, scheme, pools_flag=True)
    assert front_unrolled is not None
    assert _signature(front) == _signature(front_unrolled)


# ----------------------------------------------------------------------
# InfeasibleTargetError contract (PR 4's DSE convention)
# ----------------------------------------------------------------------

def test_empty_feasible_set_raises_with_best_none():
    network = Network.from_layers(
        "tiny", [ConvLayer.square(8, 3, 8, 8)])
    with pytest.raises(InfeasibleTargetError) as excinfo:
        chip_pareto(network, [PIMArray.square(64)], max_arrays=1)
    assert excinfo.value.best is None


def test_unreachable_target_attaches_best_achievable():
    from repro.api import default_engine

    network = Network.from_layers(
        "tiny", [ConvLayer.square(8, 3, 8, 8)])
    geometry = PIMArray.square(64)
    lattice = default_engine().chip_lattice(network, geometry)
    floor = lattice.floor_arrays
    achievable = lattice.bottleneck_at(floor)
    assert achievable > 1
    with pytest.raises(InfeasibleTargetError) as excinfo:
        chip_pareto(network, [geometry], max_arrays=floor,
                    target_bottleneck=1)
    assert excinfo.value.best == achievable


def test_malformed_bounds_raise_configuration_error():
    from repro.core import ConfigurationError

    network = Network.from_layers(
        "tiny", [ConvLayer.square(8, 3, 8, 8)])
    for bad in (0, True, 2.5):
        with pytest.raises(ConfigurationError):
            chip_pareto(network, [PIMArray.square(64)],
                        target_bottleneck=bad)
        with pytest.raises(ConfigurationError):
            chip_pareto(network, [PIMArray.square(64)], max_arrays=bad)
