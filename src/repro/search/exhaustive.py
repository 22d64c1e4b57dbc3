"""Exhaustive oracle over the full rectangular-window design space.

Algorithm 1 already enumerates every rectangular window, so the oracle's
value is *independent tie-breaking*: it re-derives the optimum with the
area-major key ``(cycles, area, height)`` instead of the first-found
scan rule, letting tests assert that Algorithm 1 is globally optimal
over its search space and that the incumbent-update logic has no
ordering bugs.

All three entry points read the shared vectorized lattice
(:mod:`repro.core.lattice`) through a
:class:`~repro.search.space.CandidateSpace`; only the handful of cells a
caller actually consumes are materialised as scalar objects.
:func:`cycle_landscape` accepts ``vectorized=False`` to re-derive the
landscape with the scalar model — the reference oracle that property
tests and ``benchmarks/bench_lattice.py`` compare against.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from ..core.array import PIMArray
from ..core.layer import ConvLayer
from ..core.window import ParallelWindow, iter_candidate_windows
from .im2col import im2col_solution
from .result import MappingSolution
from .space import CandidateSpace, lattice_solution
from .vwsdk import evaluate_window

__all__ = ["exhaustive_solution", "enumerate_feasible", "cycle_landscape"]


def _base_solution(layer: ConvLayer, array: PIMArray) -> MappingSolution:
    """The fine-grained im2col entry that seeds every enumeration."""
    base = im2col_solution(layer, array)
    return MappingSolution(scheme="vw-sdk", layer=layer, array=array,
                           window=base.window, breakdown=base.breakdown,
                           duplication=1)


def enumerate_feasible(layer: ConvLayer,
                       array: PIMArray) -> Iterator[MappingSolution]:
    """Yield a solution for every feasible window (kernel-sized included).

    The kernel-sized entry is the fine-grained im2col mapping, mirroring
    Algorithm 1's initialisation; the rest follow in area-major order,
    read off the vectorized lattice.
    """
    yield _base_solution(layer, array)
    space = CandidateSpace.for_layer(layer, array)
    for i, j in space.iter_cells(order="area"):
        yield lattice_solution(space.lattice, i, j)


def exhaustive_solution(layer: ConvLayer, array: PIMArray) -> MappingSolution:
    """Globally cycle-minimal solution over all rectangular windows.

    Tie-breaking: smallest cycle count first, then smallest window area,
    then height — *different* from Algorithm 1's first-found rule, so a
    test comparing the two asserts equality of cycle counts, not of
    window shapes.
    """
    base = _base_solution(layer, array)
    space = CandidateSpace.for_layer(layer, array)
    searched = 1 + space.count
    best = base
    cell = space.argmin(order="area")
    if cell is not None:
        candidate = lattice_solution(space.lattice, *cell)
        base_key = (base.cycles, base.window.area, base.window.h)
        cand_key = (candidate.cycles, candidate.window.area,
                    candidate.window.h)
        if cand_key < base_key:
            best = candidate
    return MappingSolution(scheme="vw-sdk", layer=layer, array=array,
                           window=best.window, breakdown=best.breakdown,
                           duplication=best.duplication,
                           candidates_searched=searched)


def cycle_landscape(layer: ConvLayer, array: PIMArray, *,
                    vectorized: bool = True
                    ) -> List[Tuple[ParallelWindow, int]]:
    """(window, cycles) for every feasible window — for DSE plots.

    The default reads the whole landscape off one lattice evaluation;
    ``vectorized=False`` re-derives it window by window with the scalar
    model (the oracle path, kept for property tests and benchmarks).
    Both include the kernel-sized im2col entry first; the rest follow in
    area-major order.
    """
    base = _base_solution(layer, array)
    points: List[Tuple[ParallelWindow, int]] = [(base.window, base.cycles)]
    if not vectorized:
        points.extend((sol.window, sol.cycles)
                      for sol in _scalar_feasible(layer, array))
        return points
    space = CandidateSpace.for_layer(layer, array)
    lat = space.lattice
    for i, j in space.iter_cells(order="area"):
        points.append((lat.window_at(i, j), int(lat.cycles[i, j])))
    return points


def _scalar_feasible(layer: ConvLayer,
                     array: PIMArray) -> Iterator[MappingSolution]:
    """The pre-lattice scalar enumeration (reference oracle).

    Evaluates :func:`evaluate_window` for every window in area-major
    order, skipping the kernel-sized cell like the vectorized path.
    """
    windows = sorted(iter_candidate_windows(layer),
                     key=lambda win: (win.area, win.h, win.w))
    for window in windows:
        candidate = evaluate_window(layer, array, window)
        if candidate is not None:
            yield candidate
