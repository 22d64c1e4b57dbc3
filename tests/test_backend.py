"""Bit-identity and memory-discipline tests for the backend shim.

The contract of ``core/backend.py`` is that every backend — the numpy
reference, the numba JIT kernels, and (transitively) the minimized
dtypes both employ — produces **bit-identical** values to the scalar
model.  These properties pin it over randomized layers, arrays and
strides:

* the numba kernel *bodies* (``core/_kernels.py``) run interpreted
  here, so the JIT arithmetic is property-tested even on numba-free
  machines (the compiled path is additionally checked when numba is
  installed — see the ``skipif`` tests);
* the dtype-widening boundary is forced explicitly and ``INFEASIBLE``
  semantics are asserted to survive minimization;
* the engine surfaces its resolved backend through ``stats``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import MappingEngine
from repro.core import ConvLayer, PIMArray
from repro.core._kernels import finish_kernel, geo_cycles_kernel
from repro.core.backend import (HAVE_NUMBA, Backend, NumbaBackend,
                                NumpyBackend, get_backend, minimal_dtype)
from repro.core.cycles import variable_window_cycles
from repro.core.lattice import INFEASIBLE, layer_lattice
from repro.core.sweep import NetworkLattice
from repro.core.types import ConfigurationError
from repro.search import solve


class KernelBackend(NumbaBackend):
    """The numba kernels run *interpreted* — JIT arithmetic, no JIT.

    Same dispatch methods as :class:`NumbaBackend`, but the kernel
    bodies stay plain Python, so this backend works everywhere and
    proves the loop arithmetic independently of compilation.
    """

    name = "kernel-interp"

    def __init__(self) -> None:  # deliberately no numba requirement
        self._finish = finish_kernel
        self._geo_cycles = geo_cycles_kernel


def all_backends():
    backends = [NumpyBackend(), KernelBackend()]
    if HAVE_NUMBA:
        backends.append(get_backend("numba"))
    return backends


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

FIELDS = ("ic_t", "oc_t", "ar", "ac", "n_pw", "cycles")


# ----------------------------------------------------------------------
# Bit-identity: with_array finishing step (eqs. 4-8)
# ----------------------------------------------------------------------

@given(layers, arrays)
@settings(max_examples=80, deadline=None)
def test_with_array_bit_identical_across_backends(layer, array):
    lat = layer_lattice(layer)
    ref = lat.with_array(array, backend=NumpyBackend())
    for backend in all_backends()[1:]:
        got = lat.with_array(array, backend=backend)
        assert np.array_equal(ref.feasible, got.feasible), backend.name
        for name in FIELDS:
            assert np.array_equal(
                getattr(ref, name).astype(np.int64, copy=False),
                getattr(got, name).astype(np.int64, copy=False)), \
                (backend.name, name)


@given(layers, arrays)
@settings(max_examples=40, deadline=None)
def test_feasible_cells_match_scalar_oracle(layer, array):
    lattice = layer_lattice(layer).with_array(array, backend="numpy")
    rows, cols = np.nonzero(lattice.feasible)
    # Sample a handful of feasible cells; the scalar model is the
    # ground truth for each one.
    for i, j in list(zip(rows.tolist(), cols.tolist()))[:5]:
        breakdown = variable_window_cycles(layer, array,
                                           lattice.window_at(i, j))
        assert int(lattice.cycles[i, j]) == breakdown.total
        assert int(lattice.n_pw[i, j]) == breakdown.n_pw
        assert int(lattice.ar[i, j]) == breakdown.ar
        assert int(lattice.ac[i, j]) == breakdown.ac
        assert int(lattice.ic_t[i, j]) == breakdown.ic_t
        assert int(lattice.oc_t[i, j]) == breakdown.oc_t


# ----------------------------------------------------------------------
# Bit-identity: network sweep evaluation
# ----------------------------------------------------------------------

@given(st.lists(layers, min_size=1, max_size=3),
       st.lists(arrays, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_network_sweep_bit_identical_across_backends(net, probe):
    lattice = NetworkLattice.for_network(net, "vw-sdk")
    expected = lattice.cycles_for(probe, backend="numpy")
    for backend in all_backends()[1:]:
        assert np.array_equal(lattice.cycles_for(probe, backend=backend),
                              expected), backend.name
        assert lattice.network_cycles(probe[0], backend=backend) == \
            int(expected[0]), backend.name


@given(st.lists(layers, min_size=1, max_size=2), arrays)
@settings(max_examples=30, deadline=None)
def test_network_sweep_matches_per_layer_solver(net, array):
    total = sum(solve(layer, array, "vw-sdk").cycles for layer in net)
    lattice = NetworkLattice.for_network(net, "vw-sdk")
    for backend in all_backends():
        assert lattice.network_cycles(array, backend=backend) == total, \
            backend.name


# ----------------------------------------------------------------------
# Dtype minimization and the widening boundary
# ----------------------------------------------------------------------

def test_minimal_dtype_boundary():
    edge = np.iinfo(np.int32).max
    assert minimal_dtype(0) == np.dtype(np.int32)
    assert minimal_dtype(edge - 1) == np.dtype(np.int32)
    # The dtype max is reserved as the local infeasibility sentinel,
    # so a bound that *reaches* it must widen.
    assert minimal_dtype(edge) == np.dtype(np.int64)
    assert minimal_dtype(edge * edge) == np.dtype(np.int64)


def test_finish_dtype_widens_past_int32():
    array = PIMArray.square(512)
    small = layer_lattice(ConvLayer.square(14, 3, 256, 256))
    assert small.finish_dtype(array) == np.dtype(np.int32)
    # 224x224 with 256->512 channels: max(n_pw) * IC * OC overflows
    # int32, so the whole finishing step runs in int64.
    big = layer_lattice(ConvLayer.square(224, 3, 256, 512))
    assert big.finish_dtype(array) == np.dtype(np.int64)


def test_widened_layer_bit_identical_across_backends():
    lat = layer_lattice(ConvLayer.square(224, 3, 256, 512))
    array = PIMArray.square(512)
    ref = lat.with_array(array, backend="numpy")
    assert ref.cycles.dtype == np.dtype(np.int64)
    got = lat.with_array(array, backend=KernelBackend())
    for name in FIELDS:
        assert np.array_equal(getattr(ref, name), getattr(got, name)), name
    # And the widened grid still beats the int32 range somewhere —
    # the widening was *needed*, not vacuous.
    assert int(ref.cycles.max()) > np.iinfo(np.int32).max // 256


@given(layers, arrays)
@settings(max_examples=40, deadline=None)
def test_infeasible_survives_minimization(layer, array):
    lattice = layer_lattice(layer).with_array(array, backend="numpy")
    masked = lattice.masked_cycles()
    assert masked.dtype == np.dtype(np.int64)
    infeasible = ~lattice.feasible
    assert np.all(masked[infeasible] == INFEASIBLE)
    # Real values never collide with the sentinel, whatever the
    # minimized storage dtype was.
    assert np.all(masked[lattice.feasible] < INFEASIBLE)


def test_all_infeasible_grid_is_all_sentinel():
    # A 4-row array cannot hold a 3x3 kernel's 9-cell window column.
    lattice = layer_lattice(ConvLayer.square(8, 3, 4, 4)).with_array(
        PIMArray(4, 4), backend="numpy")
    assert not lattice.feasible.any()
    assert np.all(lattice.masked_cycles() == INFEASIBLE)
    assert np.all(lattice.cycles == 0)


# ----------------------------------------------------------------------
# Selection, fallback and engine surfacing
# ----------------------------------------------------------------------

def test_get_backend_resolution():
    assert get_backend("numpy").name == "numpy"
    assert get_backend("numpy") is get_backend("numpy")  # shared
    expected = "numba" if HAVE_NUMBA else "numpy"
    assert get_backend("auto").name == expected
    assert get_backend(None).name == expected
    inst = KernelBackend()
    assert get_backend(inst) is inst             # instance passthrough
    with pytest.raises(ConfigurationError):
        get_backend("cuda")


@pytest.mark.skipif(HAVE_NUMBA, reason="numba installed: no fallback")
def test_numba_backend_unavailable_raises():
    with pytest.raises(ConfigurationError):
        NumbaBackend()
    with pytest.raises(ConfigurationError):
        MappingEngine(backend="numba")


def test_engine_surfaces_backend_and_workspace_counters():
    engine = MappingEngine(backend="numpy")
    net = [ConvLayer.square(14, 3, 16, 16), ConvLayer.square(7, 3, 32, 32)]
    probes = [PIMArray.square(s) for s in (64, 128, 256)]
    first = engine.sweep_cycles(net, probes)
    assert np.array_equal(engine.sweep_cycles(net, probes), first)
    stats = engine.stats
    assert stats.backend == "numpy"
    payload = stats.to_dict()
    assert payload["backend"] == "numpy"
    # Batch-scoped snapshots keep the legacy envelope exactly.
    from repro.api import CacheSnapshot
    assert "backend" not in CacheSnapshot(hits=1).to_dict()


def test_backend_name_keys_the_sweep_memo(monkeypatch):
    # A lattice involves no backend arithmetic, so the backend name
    # stays out of the sweep memo key: a per-request override shares
    # the one lattice and only its cycles_for evaluation switches
    # backend.
    engine = MappingEngine(backend="numpy")
    net = [ConvLayer.square(14, 3, 16, 16)]
    probes = [PIMArray.square(side) for side in (64, 128)]
    shared = engine.network_sweep(net)
    assert engine.network_sweep(net) is shared   # memo hit
    swept = []
    cycles_for = NetworkLattice.cycles_for

    def spy(lattice, *args, **kwargs):
        swept.append((lattice is shared, kwargs["backend"].name))
        return cycles_for(lattice, *args, **kwargs)

    monkeypatch.setattr(NetworkLattice, "cycles_for", spy)
    base = engine.sweep_cycles(net, probes)
    override = engine.sweep_cycles(net, probes, backend=KernelBackend())
    assert swept == [(True, "numpy"), (True, "kernel-interp")]
    assert np.array_equal(override, base)


@pytest.mark.skipif(not HAVE_NUMBA, reason="needs numba")
def test_numba_engine_bit_identical_to_numpy_engine():
    from repro.networks import resnet18
    net = resnet18()
    probes = [PIMArray(r, c) for r in (64, 128, 512) for c in (64, 256)]
    base = MappingEngine(backend="numpy").sweep_cycles(net, probes)
    jit = MappingEngine(backend="numba").sweep_cycles(net, probes)
    assert np.array_equal(base, jit)
