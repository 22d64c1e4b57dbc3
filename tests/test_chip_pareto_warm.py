"""What a warm ``chip_pareto`` reads once and reuses.

* ``pool_plans`` hands every plan's priced lattice to ``chip_pareto``
  and scores the mixed plan off the homogeneous lattices; the
  assignment must equal the scalar :func:`best_fit_arrays` scan,
  including when a pool geometry cannot map some layer;
* a call with more plans than the engine's sweep memo holds builds
  each plan's lattice exactly once;
* ``ChipLattice.frontier_sweep(cap)`` is a read-only prefix of the
  lattice's cached uncapped front;
* ``ChipDesignPoint``'s hand-written constructor keeps it a frozen,
  hashable dataclass indistinguishable from a keyword-built one.
"""

import dataclasses

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import DEFAULT_REGISTRY, MappingEngine, SolverRegistry
from repro.chip import ChipLattice, PoolPlan, best_fit_arrays, pool_plans
from repro.chip.pools import _best_fit_of
from repro.core import ConvLayer, CostParams, PIMArray
from repro.core.cost import DEFAULT_COST_PARAMS
from repro.core.types import MappingError
from repro.dse import chip_pareto
from repro.dse.pareto import ChipDesignPoint
from repro.networks import Network, resnet18

layers = st.builds(
    ConvLayer.square,
    st.integers(min_value=4, max_value=14),      # ifm
    st.integers(min_value=1, max_value=4),       # kernel
    st.integers(min_value=1, max_value=24),      # ic
    st.integers(min_value=1, max_value=24),      # oc
    stride=st.integers(min_value=1, max_value=2),
    padding=st.integers(min_value=0, max_value=1),
    repeats=st.integers(min_value=1, max_value=2),
).filter(lambda l: l.kernel_h <= l.ifm_h)

networks = st.lists(layers, min_size=1, max_size=4).map(
    lambda ls: Network.from_layers("rand", ls))

#: The rows of the one geometry the ``picky`` scheme refuses for
#: kernels of 3 or more: a pool holding it has a geometry some layers
#: cannot map on, while small-kernel layers often fit it best.
PICKY_ROWS = 12

#: Transposed pairs (equal cells) and near-equal cell counts, so the
#: best-fit keys tie on their leading terms and the later ones decide.
GEOMETRIES = (PIMArray(16, 16), PIMArray(16, 32), PIMArray(32, 16),
              PIMArray(24, 48), PIMArray(48, 24), PIMArray(32, 32),
              PIMArray(PICKY_ROWS, 12), PIMArray(64, 24),
              PIMArray(64, 64), PIMArray(128, 48))

pools = st.lists(st.sampled_from(GEOMETRIES), min_size=2, max_size=4,
                 unique=True)

SCHEMES = ("vw-sdk", "im2col", "sdk", "picky")

PARAMS = CostParams(cycle_time_ns=80.0, adc_energy_pj=3.0,
                    dac_energy_pj=0.125, cell_energy_pj=0.002)

#: Every stage costs 0 nJ: the energy term ties, so the cells and rows
#: terms of the best-fit key decide.
FREE = CostParams(adc_energy_pj=0.0, dac_energy_pj=0.0, cell_energy_pj=0.0)


def _picky_engine() -> MappingEngine:
    """An engine whose registry adds ``picky``: ``vw-sdk``, except that
    it raises ``MappingError`` for kernels >= 3 on the ``PICKY_ROWS``
    geometry."""
    registry = SolverRegistry()
    for name in DEFAULT_REGISTRY.names():
        info = DEFAULT_REGISTRY.get(name)
        registry.register(name, info.solver,
                          capabilities=tuple(info.capabilities))
    vwsdk = DEFAULT_REGISTRY.solver("vw-sdk")

    def picky(layer, array):
        if array.rows == PICKY_ROWS and layer.kernel_h >= 3:
            raise MappingError(f"picky refuses {layer.shape_str} on {array}")
        return vwsdk(layer, array)

    registry.register("picky", picky)
    return MappingEngine(registry=registry, backend="numpy")


# ----------------------------------------------------------------------
# The mixed plan read off lattices
# ----------------------------------------------------------------------

@given(networks, pools, st.sampled_from(SCHEMES),
       st.sampled_from((PARAMS, FREE)))
@settings(max_examples=80, deadline=None)
def test_mixed_plan_equals_best_fit_arrays(network, pool, scheme, params):
    engine = _picky_engine()
    plans = pool_plans(network, pool, scheme, engine=engine,
                       cost_params=params)
    homogeneous = [plan for plan in plans if plan.homogeneous]
    mixed = [plan.arrays for plan in plans if not plan.homogeneous]
    try:
        expected = best_fit_arrays(network, pool, scheme, engine=engine,
                                   cost_params=params)
    except MappingError:
        expected = None
    if expected is None or any(plan.arrays == expected
                               for plan in homogeneous):
        assert mixed == []
    else:
        assert mixed == [expected]
    if len(homogeneous) == len(pool):  # every geometry maps every layer
        assert _best_fit_of(homogeneous) == expected
    for plan in plans:  # each plan carries the engine's priced lattice
        assert plan.lattice is engine.chip_lattice(
            network, plan.arrays, scheme, cost_params=params)


def test_best_fit_ties_fall_to_fewer_cells_then_fewer_rows():
    """Equal ``n_pw * tiles * cells`` and energy: 64x4 wins the first
    layer on cells, 16x32 the second on rows (64x4 is worse there)."""
    network = Network.from_layers("ties", [ConvLayer.square(4, 1, 4, 8),
                                           ConvLayer.square(5, 1, 2, 16)])
    pool = [PIMArray(32, 16), PIMArray(16, 32), PIMArray(64, 4)]
    engine = MappingEngine(backend="numpy")
    plans = pool_plans(network, pool, "im2col", engine=engine,
                       cost_params=FREE)
    assignment = (PIMArray(64, 4), PIMArray(16, 32))
    assert [plan.label for plan in plans] == [
        "64x4", "16x32", "32x16", "mixed"]
    assert plans[-1].arrays == assignment
    assert _best_fit_of(plans[:3]) == assignment
    assert best_fit_arrays(network, pool, "im2col", engine=engine,
                           cost_params=FREE) == assignment


def test_unmappable_geometry_still_fits_the_layers_it_maps():
    """12x12 maps only the 2x2 layer, where it fits best: the mixed
    plan must use it there, though it has no lattice of its own."""
    network = Network.from_layers("two", [ConvLayer.square(6, 2, 4, 4),
                                          ConvLayer.square(8, 3, 8, 8)])
    pool = [PIMArray(16, 16), PIMArray(PICKY_ROWS, 12)]
    engine = _picky_engine()
    plans = pool_plans(network, pool, "picky", engine=engine)
    assert [plan.label for plan in plans] == ["16x16", "mixed"]
    assert plans[-1].arrays == (PIMArray(PICKY_ROWS, 12), PIMArray(16, 16))
    assert plans[-1].arrays == best_fit_arrays(network, pool, "picky",
                                               engine=engine)


def test_plan_lattices_default_to_default_cost_params():
    plans = pool_plans(resnet18(), [PIMArray.square(128),
                                    PIMArray.square(512)])
    assert [plan.label for plan in plans] == ["128x128", "512x512", "mixed"]
    assert all(plan.lattice.cost_params == DEFAULT_COST_PARAMS
               for plan in plans)


def test_plan_lattice_is_not_part_of_the_plan():
    plan = pool_plans(resnet18(), [PIMArray.square(128),
                                   PIMArray.square(512)])[0]
    bare = PoolPlan(label=plan.label, arrays=plan.arrays, homogeneous=True)
    assert bare.lattice is None
    assert plan == bare and hash(plan) == hash(bare)
    assert repr(plan) == repr(bare)


# ----------------------------------------------------------------------
# One lattice build per plan, even past the sweep memo
# ----------------------------------------------------------------------

def test_each_plan_builds_its_lattice_once_past_the_sweep_memo(monkeypatch):
    network = Network.from_layers("small", [ConvLayer.square(8, 3, 4, 8),
                                            ConvLayer.square(6, 1, 8, 4)])
    sides = (16, 24, 32, 48, 64, 96)
    geometries = [PIMArray(r, c) for r in sides for c in sides]
    engine = MappingEngine(backend="numpy")
    plans = pool_plans(network, geometries, engine=engine)
    assert len(plans) > MappingEngine.SWEEP_CACHE_SIZE

    builds = []
    lookups = []
    for_solutions = ChipLattice.for_solutions.__func__
    chip_lattice = MappingEngine.chip_lattice

    def counted_build(cls, solutions, **kwargs):
        builds.append(1)
        return for_solutions(cls, solutions, **kwargs)

    def counted_lookup(self, *args, **kwargs):
        lookups.append(1)
        return chip_lattice(self, *args, **kwargs)

    monkeypatch.setattr(ChipLattice, "for_solutions",
                        classmethod(counted_build))
    monkeypatch.setattr(MappingEngine, "chip_lattice", counted_lookup)
    for _ in range(2):  # the LRU cycles: every lookup misses, both calls
        builds.clear()
        lookups.clear()
        front = chip_pareto(network, geometries, pools=True, engine=engine)
        assert len(builds) == len(lookups) == len(plans)
    assert front


# ----------------------------------------------------------------------
# frontier_sweep(cap): a read-only prefix of the cached front
# ----------------------------------------------------------------------

caps = st.one_of(st.just("below floor"), st.just("at a budget"),
                 st.integers(min_value=1, max_value=1 << 12))


@given(networks, st.sampled_from(GEOMETRIES), st.lists(caps, max_size=4),
       st.booleans())
@settings(max_examples=50, deadline=None)
def test_capped_frontier_is_a_prefix_of_the_cached_front(
        network, array, cap_draws, costed):
    lattice = ChipLattice.for_network(
        network, array, cost_params=PARAMS if costed else None)
    front = lattice.frontier_sweep()
    assert lattice.frontier_sweep() is front  # computed once
    budgets = front.num_arrays.tolist()
    for draw in cap_draws:
        if draw == "below floor":
            cap = lattice.floor_arrays - 1
        elif draw == "at a budget":
            cap = budgets[len(budgets) // 2]
        else:
            cap = draw
        capped = lattice.frontier_sweep(cap)
        stop = sum(budget <= cap for budget in budgets)
        if cap < lattice.floor_arrays:
            assert stop == 0 and len(capped) == 0
        for f in dataclasses.fields(front):
            whole, got = getattr(front, f.name), getattr(capped, f.name)
            if whole is None:
                assert got is None, f.name
                continue
            assert got.dtype == whole.dtype, f.name
            assert got.tolist() == whole[:stop].tolist(), f.name
            assert not got.flags.writeable, f.name
    for f in dataclasses.fields(front):
        vector = getattr(front, f.name)
        if vector is not None:
            with pytest.raises(ValueError):
                vector[:1] = 0  # repro: noqa[REP003] — proves read-only


# ----------------------------------------------------------------------
# ChipDesignPoint: built fast, still a frozen hashable dataclass
# ----------------------------------------------------------------------

def test_fast_built_points_match_keyword_built_ones():
    front = chip_pareto(resnet18(), [PIMArray.square(256),
                                     PIMArray.square(512)], pools=True)
    for point in front[:20]:
        twin = ChipDesignPoint(
            pool=point.pool, num_arrays=point.num_arrays,
            cells=point.cells, energy_nj=point.energy_nj,
            bottleneck_cycles=point.bottleneck_cycles,
            latency_us=point.latency_us, solutions=point.solutions)
        assert point == twin and hash(point) == hash(twin)
        assert repr(point) == repr(twin)
        assert vars(point) == vars(twin)
    point = front[0]
    scored = dataclasses.replace(point, accuracy_proxy=0.5)
    assert scored.accuracy_proxy == 0.5 and scored == point
    assert scored.solutions is point.solutions
    assert dataclasses.replace(point, cells=point.cells + 1) != point
    with pytest.raises(dataclasses.FrozenInstanceError):
        point.cells = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del point.pool
    bare = ChipDesignPoint("p", 1, 2, 3.0, 4, 5.0)
    assert (bare.solutions, bare.accuracy_proxy) == ((), None)
    assert dataclasses.astuple(bare) == ("p", 1, 2, 3.0, 4, 5.0, (), None)


def test_front_order_is_cells_then_bottleneck_descending_then_energy():
    front = chip_pareto(resnet18(), [PIMArray.square(128),
                                     PIMArray(256, 128),
                                     PIMArray.square(256)], pools=True)
    keys = [(p.cells, -p.bottleneck_cycles, p.energy_nj) for p in front]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert isinstance(front[0].cells, int)
    assert isinstance(front[0].energy_nj, float)
    assert np.isfinite([p.energy_nj for p in front]).all()
