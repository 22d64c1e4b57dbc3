"""Ablations of VW-SDK's two ingredients.

VW-SDK differs from SDK [2] in exactly two ways: (1) rectangular
parallel windows, (2) partial-channel tiling.  These searches disable
one ingredient at a time, quantifying each one's contribution (the
DESIGN.md ablation benches print the resulting totals):

* :func:`vwsdk_square_only` — channel tiling enabled, but only square
  windows are searched (isolates the value of rectangles).
* :func:`vwsdk_full_channels_only` — any window shape, but all input
  channels must fit in one row tile, i.e. ``IC_t >= IC`` (isolates the
  value of channel tiling).

Both are masked subspaces of the same vectorized lattice Algorithm 1
scans (:meth:`~repro.search.space.CandidateSpace.square_only`,
:meth:`~repro.search.space.CandidateSpace.full_channels_only`), so an
ablation costs one mask instead of a second scalar scan.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..core.array import PIMArray
from ..core.layer import ConvLayer
from ..core.window import (
    ParallelWindow,
    iter_candidate_windows,
    num_candidate_windows,
)
from .im2col import im2col_solution
from .result import MappingSolution
from .space import CandidateSpace, lattice_solution
from .vwsdk import evaluate_window

__all__ = ["vwsdk_square_only", "vwsdk_full_channels_only"]


def _square_candidates(layer: ConvLayer) -> Iterator[ParallelWindow]:
    """Algorithm 1's square windows beyond the kernel's long side."""
    start = max(layer.kernel_h, layer.kernel_w) + 1
    return (window for window in iter_candidate_windows(layer)
            if window.is_square and window.h >= start)


def _search_scalar(layer: ConvLayer, array: PIMArray, candidates,
                   require_full_channels: bool) -> MappingSolution:
    """Reference scalar scan: the oracle the lattice searches match."""
    base = im2col_solution(layer, array)
    incumbent = MappingSolution(
        scheme="vw-sdk", layer=layer, array=array, window=base.window,
        breakdown=base.breakdown, duplication=1)
    searched = 0
    for window in candidates:
        searched += 1
        candidate = evaluate_window(layer, array, window)
        if candidate is None:
            continue
        if (require_full_channels
                and candidate.breakdown.ic_t < layer.in_channels):
            continue
        if candidate.cycles < incumbent.cycles:
            incumbent = candidate
    return MappingSolution(
        scheme="vw-sdk", layer=layer, array=array,
        window=incumbent.window, breakdown=incumbent.breakdown,
        duplication=incumbent.duplication, candidates_searched=searched)


def _search_lattice(layer: ConvLayer, array: PIMArray,
                    space: CandidateSpace,
                    searched: int) -> MappingSolution:
    """Scan-order argmin over a masked subspace, im2col incumbent."""
    base = im2col_solution(layer, array)
    best = space.first_improvement(base.cycles)
    if best is None:
        return MappingSolution(
            scheme="vw-sdk", layer=layer, array=array, window=base.window,
            breakdown=base.breakdown, duplication=1,
            candidates_searched=searched)
    return lattice_solution(space.lattice, *best,
                            candidates_searched=searched)


def vwsdk_square_only(layer: ConvLayer, array: PIMArray) -> MappingSolution:
    """Algorithm 1 restricted to square parallel windows.

    Still allows partial channels — this is "SDK plus channel tiling".

    >>> from repro.core import ConvLayer, PIMArray
    >>> layer = ConvLayer.square(14, 3, 256, 256)
    >>> vwsdk_square_only(layer, PIMArray.square(512)).cycles
    576
    """
    space = CandidateSpace.for_layer(layer, array).square_only()
    # Candidate count mirrors the scalar generator: every square grid
    # cell, feasible or not.
    lat = space.lattice
    start = max(layer.kernel_h, layer.kernel_w) + 1
    searched = int(np.count_nonzero(lat.pw_h[lat.pw_h >= start, None]
                                    == lat.pw_w[None, :]))
    return _search_lattice(layer, array, space, searched)


def vwsdk_full_channels_only(layer: ConvLayer,
                             array: PIMArray) -> MappingSolution:
    """Algorithm 1 restricted to windows hosting all input channels.

    Still allows rectangles — this is "SDK with free shapes but no
    channel tiling".
    """
    searched = num_candidate_windows(layer)
    space = CandidateSpace.for_layer(layer, array).full_channels_only()
    return _search_lattice(layer, array, space, searched)
