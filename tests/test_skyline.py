"""The one dominance prune (``core/skyline.py``) against its oracle.

Every Pareto front in the repo — window fronts, ``array_pareto``,
``chip_pareto`` and ``window_pareto`` — prunes through
:func:`repro.core.skyline.skyline`.  These tests pin it to the generic
O(n^2) :func:`repro.dse.pareto.pareto_front` on rows built to collide
(small value pools, so exact duplicates and ties on single objectives
are the norm), bound its memory at chip-frontier scale (alone and
inside a 15,300-row ``chip_pareto`` call), and check that
``chip_pareto`` still resolves its prune through the module attribute
profilers wrap.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PIMArray
from repro.core.skyline import skyline
from repro.dse import pareto
from repro.dse.pareto import array_candidates, chip_pareto, pareto_front
from repro.networks import resnet18


def oracle(rows):
    """``pareto_front``'s survivors minus later exact duplicates."""
    first = {}
    for k in pareto_front(range(len(rows)), lambda k: rows[k]):
        first.setdefault(rows[k], k)
    return sorted(first.values())


@st.composite
def objective_rows(draw):
    width = draw(st.sampled_from((2, 3)))
    if draw(st.booleans()):
        values, dtype = st.integers(-50, 50), np.int64
    else:
        values = st.floats(-1e6, 1e6, allow_nan=False)
        dtype = np.float64
    pool = draw(st.lists(values, min_size=1, max_size=6))
    rows = draw(st.lists(st.tuples(*[st.sampled_from(pool)] * width),
                         max_size=80))
    return rows, np.asarray(rows, dtype=dtype).reshape(len(rows), width)


@given(objective_rows())
@settings(max_examples=300, deadline=None)
def test_skyline_matches_pareto_front_oracle(case):
    rows, values = case
    assert skyline(values).tolist() == oracle(rows)


@pytest.mark.parametrize("shape", [(4,), (4, 1), (4, 4)])
def test_skyline_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match="skyline needs"):
        skyline(np.zeros(shape))


def test_chip_prune_peak_memory_is_bounded():
    # 10,000 three-objective float rows: half on the unit simplex, so
    # mutually non-dominated and the staircase grows, half dominated
    # from [1, 2)^3; the pairwise prune this replaced peaked at 477 MB.
    rng = np.random.default_rng(0)
    values = np.concatenate([rng.dirichlet((1.0, 1.0, 1.0), 5_000),
                             1.0 + rng.random((5_000, 3))])
    tracemalloc.start()
    try:
        kept = pareto._non_dominated(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept.tolist() == list(range(5_000))
    assert peak < 16 * 2**20


def test_chip_pareto_prunes_through_the_module_attribute(monkeypatch):
    seen = []
    prune = pareto._non_dominated

    def counted(values):
        seen.append(len(values))
        return prune(values)
    monkeypatch.setattr(pareto, "_non_dominated", counted)
    front = chip_pareto(resnet18(), [PIMArray.square(512)])
    assert len(seen) == 1 and seen[0] >= len(front) > 0


def test_chip_pareto_peak_memory_at_frontier_scale(monkeypatch):
    # A warm non-square pools front feeds the prune 15,300 candidate
    # rows; building an object per row, or pruning pairwise (hundreds
    # of MB), would show in the peak.
    network, candidates = resnet18(), array_candidates(256 * 256)
    chip_pareto(network, candidates, pools=True)   # warm the memos
    seen = []
    prune = pareto._non_dominated

    def counted(values):
        seen.append(len(values))
        return prune(values)
    monkeypatch.setattr(pareto, "_non_dominated", counted)
    tracemalloc.start()
    try:
        front = chip_pareto(network, candidates, pools=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seen == [15_300]
    assert len(front) == 1_669
    assert peak < 8 * 2**20
