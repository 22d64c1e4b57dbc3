"""Property tests: the vectorized lattice vs. the scalar oracle.

The scalar model (``variable_window_cycles``, ``evaluate_window`` and
the pre-lattice search loops re-implemented here) is the reference;
every test asserts the vectorized ``repro.core.lattice`` /
``repro.search.space`` stack reproduces it element for element, at
strides 1-3 — including Algorithm 1's strict-improvement first-found
tie-breaking.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConvLayer,
    MappingError,
    PIMArray,
    im2col_cycles,
    variable_window_cycles,
    window_lattice,
)
from repro.core.utilization import utilization_report
from repro.core.window import ParallelWindow, iter_candidate_windows
from repro.dse import window_pareto
from repro.dse.pareto import ParetoPoint, pareto_front
from repro.search import (
    CandidateSpace,
    cycle_landscape,
    enumerate_feasible,
    evaluate_window,
    exhaustive_solution,
    im2col_solution,
    lattice_solution,
    vwsdk_full_channels_only,
    vwsdk_solution,
    vwsdk_square_only,
)

# ----------------------------------------------------------------------
# Strategies: randomized layers (with stride/padding), arrays
# ----------------------------------------------------------------------

layers = st.builds(
    ConvLayer.square,
    st.integers(min_value=4, max_value=16),      # ifm
    st.integers(min_value=1, max_value=4),       # kernel
    st.integers(min_value=1, max_value=24),      # ic
    st.integers(min_value=1, max_value=24),      # oc
    stride=st.integers(min_value=1, max_value=3),
    padding=st.integers(min_value=0, max_value=2),
)

any_stride_layers = st.builds(
    ConvLayer.square,
    st.integers(min_value=4, max_value=16),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=16),
    stride=st.integers(min_value=1, max_value=3),
    padding=st.integers(min_value=0, max_value=2),
)

arrays = st.builds(
    PIMArray,
    st.integers(min_value=4, max_value=600),     # rows
    st.integers(min_value=3, max_value=600),     # cols
)


# ----------------------------------------------------------------------
# Cell-for-cell agreement with the scalar model
# ----------------------------------------------------------------------

@given(layers, arrays)
@settings(max_examples=60, deadline=None)
def test_window_lattice_matches_scalar_every_cell(layer, array):
    lat = window_lattice(layer, array)
    assert lat.shape == (layer.ofm_h, layer.ofm_w)
    for i in range(lat.shape[0]):
        for j in range(lat.shape[1]):
            window = lat.window_at(i, j)
            assert (window.h, window.w) == (
                layer.kernel_h + i * layer.stride,
                layer.kernel_w + j * layer.stride)
            try:
                expected = variable_window_cycles(layer, array, window)
            except MappingError:
                assert not lat.feasible[i, j]
                with pytest.raises(MappingError):
                    lat.breakdown_at(i, j)
                continue
            assert lat.feasible[i, j]
            assert lat.breakdown_at(i, j) == expected
            assert int(lat.cycles[i, j]) == expected.total


@given(any_stride_layers, arrays)
@settings(max_examples=60, deadline=None)
def test_strided_lattice_matches_scalar_every_cell(layer, array):
    lat = window_lattice(layer, array)
    assert lat.shape == (layer.ofm_h, layer.ofm_w)
    for i in range(lat.shape[0]):
        for j in range(lat.shape[1]):
            window = ParallelWindow.spanning(layer, nw_h=i + 1, nw_w=j + 1)
            try:
                expected = variable_window_cycles(layer, array, window)
            except MappingError:
                assert not lat.feasible[i, j]
                continue
            assert lat.feasible[i, j]
            assert lat.breakdown_at(i, j) == expected
            # Pixel extents agree with the scalar window geometry.
            assert (int(lat.pw_h[i]), int(lat.pw_w[j])) == (window.h,
                                                            window.w)


# ----------------------------------------------------------------------
# Search equivalence: lattice-backed searches vs. the scalar loops
# ----------------------------------------------------------------------

def scalar_vwsdk(layer, array):
    """The pre-lattice Algorithm 1 loop (strict-improvement incumbent)."""
    from dataclasses import replace
    incumbent = replace(im2col_solution(layer, array), scheme="vw-sdk")
    searched = 0
    for window in iter_candidate_windows(layer):
        searched += 1
        candidate = evaluate_window(layer, array, window)
        if candidate is not None and candidate.cycles < incumbent.cycles:
            incumbent = candidate
    return replace(incumbent, candidates_searched=searched)


@given(any_stride_layers, arrays)
@settings(max_examples=60, deadline=None)
def test_vwsdk_matches_scalar_loop(layer, array):
    expected = scalar_vwsdk(layer, array)
    actual = vwsdk_solution(layer, array)
    assert actual.window == expected.window          # same tie-break
    assert actual.breakdown == expected.breakdown
    assert actual.candidates_searched == expected.candidates_searched


@given(any_stride_layers, arrays)
@settings(max_examples=60, deadline=None)
def test_search_strided_matches_scalar_loop(layer, array):
    best_window = ParallelWindow.of_kernel(layer)
    best = im2col_cycles(layer, array)
    for window in iter_candidate_windows(layer):
        try:
            candidate = variable_window_cycles(layer, array, window)
        except MappingError:
            continue
        if candidate.total < best.total:
            best, best_window = candidate, window
    actual = vwsdk_solution(layer, array)
    assert actual.window == best_window              # same tie-break
    assert actual.breakdown == best


@given(layers, arrays)
@settings(max_examples=40, deadline=None)
def test_ablations_match_scalar_loops(layer, array):
    from repro.search.ablation import _search_scalar, _square_candidates
    sq_expected = _search_scalar(layer, array, _square_candidates(layer),
                                 require_full_channels=False)
    sq_actual = vwsdk_square_only(layer, array)
    assert sq_actual.window == sq_expected.window
    assert sq_actual.breakdown == sq_expected.breakdown
    assert sq_actual.candidates_searched == sq_expected.candidates_searched

    fc_expected = _search_scalar(layer, array, iter_candidate_windows(layer),
                                 require_full_channels=True)
    fc_actual = vwsdk_full_channels_only(layer, array)
    assert fc_actual.window == fc_expected.window
    assert fc_actual.breakdown == fc_expected.breakdown
    assert fc_actual.candidates_searched == fc_expected.candidates_searched


@given(layers, arrays)
@settings(max_examples=40, deadline=None)
def test_landscape_vectorized_matches_scalar(layer, array):
    vectorized = cycle_landscape(layer, array)
    scalar = cycle_landscape(layer, array, vectorized=False)
    assert vectorized == scalar


@given(layers, arrays)
@settings(max_examples=30, deadline=None)
def test_window_pareto_matches_generic_front(layer, array):
    """The sort-and-scan frontier equals the generic O(n^2) one.

    Both run on the same utilization numbers (the lattice closed form;
    its agreement with the eq. 9 tile enumeration is locked separately
    by ``test_lattice_utilization_matches_report``) — the old scalar
    path's per-tile float summation could split mathematical ties by an
    ulp, which is noise, not semantics.
    """
    base = next(iter(enumerate_feasible(layer, array)))
    report = utilization_report(base)
    points = [ParetoPoint(window=str(base.window), cycles=base.cycles,
                          mean_utilization_pct=report.mean_pct,
                          peak_utilization_pct=report.peak_pct)]
    space = CandidateSpace.for_layer(layer, array)
    mean = space.lattice.mean_utilization_pct()
    peak = space.lattice.peak_utilization_pct()
    for i, j in space.iter_cells(order="area"):
        points.append(ParetoPoint(
            window=str(space.lattice.window_at(i, j)),
            cycles=int(space.lattice.cycles[i, j]),
            mean_utilization_pct=float(mean[i, j]),
            peak_utilization_pct=float(peak[i, j])))
    expected = sorted(
        pareto_front(points, lambda p: (p.cycles, -p.mean_utilization_pct)),
        key=lambda p: p.cycles)
    assert window_pareto(layer, array) == expected


# ----------------------------------------------------------------------
# Vectorized utilization closed form vs. eq. 9 tile enumeration
# ----------------------------------------------------------------------

@given(layers, arrays)
@settings(max_examples=40, deadline=None)
def test_lattice_utilization_matches_report(layer, array):
    space = CandidateSpace.for_layer(layer, array)
    mean = space.lattice.mean_utilization_pct()
    peak = space.lattice.peak_utilization_pct()
    checked = 0
    for i, j in space.iter_cells(order="scan"):
        report = utilization_report(lattice_solution(space.lattice, i, j))
        assert mean[i, j] == pytest.approx(report.mean_pct)
        assert peak[i, j] == pytest.approx(report.peak_pct)
        checked += 1
        if checked >= 6:
            return


# ----------------------------------------------------------------------
# Tie-breaking regressions (paper Table I)
# ----------------------------------------------------------------------

def test_vgg13_layer1_strict_improvement_tie_break():
    # 10x3 and 4x6 tie at 6216 cycles; the width-major scan reaches
    # 10x3 first and the incumbent only moves on strict improvement.
    layer = ConvLayer.square(224, 3, 3, 64)
    sol = vwsdk_solution(layer, PIMArray.square(512))
    assert str(sol.window) == "10x3"
    assert sol.cycles == 6216
    tie = evaluate_window(layer, PIMArray.square(512),
                          ParallelWindow(h=6, w=4))
    assert tie.cycles == 6216


@pytest.mark.parametrize("ifm,k,ic,oc,window,cycles", [
    (224, 3, 3, 64, "10x3", 6216),
    (56, 3, 128, 256, "4x3", 5832),
    (14, 3, 512, 512, "3x3", 1296),
    (112, 7, 3, 64, "10x8", 1431),
    (7, 3, 512, 512, "3x3", 225),    # degenerates to im2col
])
def test_paper_windows_through_lattice(ifm, k, ic, oc, window, cycles):
    sol = vwsdk_solution(ConvLayer.square(ifm, k, ic, oc),
                         PIMArray.square(512))
    assert (str(sol.window), sol.cycles) == (window, cycles)


# ----------------------------------------------------------------------
# CandidateSpace strategies: orders, top-k, masked subspaces
# ----------------------------------------------------------------------

@given(layers, arrays)
@settings(max_examples=40, deadline=None)
def test_top_k_is_sorted_prefix_of_oracle_order(layer, array):
    space = CandidateSpace.for_layer(layer, array)
    cells = space.top_k(5)
    assert len(cells) == min(5, space.count)
    keys = [(int(space.lattice.cycles[c]), int(space.lattice.area[c]),
             int(space.lattice.pw_h[c[0]])) for c in cells]
    assert keys == sorted(keys)
    if cells:
        oracle = exhaustive_solution(layer, array)
        best = lattice_solution(space.lattice, *cells[0])
        assert best.cycles >= oracle.cycles   # oracle includes im2col seed
        top1 = space.argmin(order="area")
        assert cells[0] == top1


@given(layers, arrays)
@settings(max_examples=40, deadline=None)
def test_masked_subspaces_are_subsets(layer, array):
    space = CandidateSpace.for_layer(layer, array)
    for sub in (space.square_only(), space.full_channels_only()):
        assert sub.count <= space.count
        assert not (sub.mask & ~space.mask).any()
    sq = space.square_only()
    for i, j in sq.iter_cells():
        win = sq.lattice.window_at(i, j)
        assert win.is_square
        assert win.h > max(layer.kernel_h, layer.kernel_w)


@given(layers, arrays)
@settings(max_examples=40, deadline=None)
def test_scan_argmin_equals_first_scan_minimum(layer, array):
    space = CandidateSpace.for_layer(layer, array)
    cell = space.argmin(order="scan")
    if cell is None:
        assert space.count == 0
        return
    best = int(space.lattice.cycles[cell])
    for ij in space.iter_cells(order="scan"):
        cycles = int(space.lattice.cycles[ij])
        assert cycles >= best
        if cycles == best:
            assert ij == cell                 # first minimum wins
            break
