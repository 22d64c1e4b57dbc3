"""VW-SDK — the paper's contribution (Algorithm 1).

The search initialises its incumbent with the im2col cycle count, then
considers every parallel-window shape from ``(K_w+1, K_h)`` up to the
IFM size and keeps the first window (in the paper's width-major scan
order) that achieves the minimum — the incumbent is replaced only on
*strict* improvement, which is what makes VGG-13 layer 1 report
``10x3`` rather than the tying ``4x6``.

Windows that cannot host even one input channel in the array rows, or
one output channel's duplicated kernels in the array columns, are
skipped as infeasible.

Windows are counted on the layer's stride grid (a group of ``nw``
kernel windows spans ``K + (nw - 1)*s`` pixels), so the same search
serves strided layers; at stride 1 it is the paper's scan.

The whole grid is evaluated in one shot on the vectorized
:func:`~repro.core.lattice.window_lattice`; the lattice's row-major
``argmin`` reproduces the scalar loop's first-found tie-breaking
exactly (property-tested against :func:`evaluate_window`, which stays
the scalar reference oracle).  Passing an explicit ``candidates``
sequence still runs the scalar loop — that is the oracle/testing hook.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional

from ..api.registry import register_scheme
from ..core.array import PIMArray
from ..core.cycles import variable_window_cycles
from ..core.layer import ConvLayer
from ..core.types import MappingError
from ..core.window import ParallelWindow, num_candidate_windows
from .im2col import im2col_solution
from .result import MappingSolution
from .space import CandidateSpace, lattice_solution

__all__ = ["vwsdk_solution", "evaluate_window"]


def evaluate_window(layer: ConvLayer, array: PIMArray,
                    window: ParallelWindow) -> Optional[MappingSolution]:
    """Evaluate one candidate window; ``None`` when infeasible.

    Feasibility means: at least kernel-sized, on the layer's stride
    grid, fits the IFM, hosts >= 1 input channel in the rows and >= 1
    output channel in the columns.
    """
    if not (window.covers_kernel(layer) and window.fits_ifm(layer)):
        return None
    try:
        breakdown = variable_window_cycles(layer, array, window)
    except MappingError:
        return None
    return MappingSolution(
        scheme="vw-sdk",
        layer=layer,
        array=array,
        window=window,
        breakdown=breakdown,
        duplication=window.windows_inside(layer),
    )


@register_scheme("vw-sdk", capabilities=("search", "variable-window",
                                         "partial-channel", "vectorized",
                                         "batchable"),
                 summary="VW-SDK variable-window search (Algorithm 1)")
def vwsdk_solution(layer: ConvLayer, array: PIMArray,
                   candidates: Optional[Iterable[ParallelWindow]] = None
                   ) -> MappingSolution:
    """Run Algorithm 1: find the cycle-minimal variable window.

    Parameters
    ----------
    layer, array:
        The problem instance.
    candidates:
        Override the scanned window sequence with a scalar loop (used
        by tests and by the exhaustive oracle); defaults to evaluating
        the paper's full width-major grid on the vectorized lattice.

    Returns the :class:`~repro.search.result.MappingSolution` with the
    minimum computing cycles; degenerates to the im2col solution when no
    window improves on it (e.g. ResNet-18 layer 5 at 512x512).

    >>> from repro.core import ConvLayer, PIMArray
    >>> layer = ConvLayer.square(14, 3, 256, 256)
    >>> sol = vwsdk_solution(layer, PIMArray.square(512))
    >>> str(sol.window), sol.cycles            # paper Table I, ResNet L4
    ('4x3', 504)
    """
    incumbent = replace(im2col_solution(layer, array), scheme="vw-sdk")
    if candidates is not None:
        searched = 0
        for window in candidates:
            searched += 1
            candidate = evaluate_window(layer, array, window)
            if candidate is not None and candidate.cycles < incumbent.cycles:
                incumbent = candidate
        return replace(incumbent, candidates_searched=searched)

    # The default grid scan, vectorized.  `searched` keeps the scalar
    # loop's convention: every grid cell except the kernel-sized one.
    searched = num_candidate_windows(layer)
    space = CandidateSpace.for_layer(layer, array)
    best = space.first_improvement(incumbent.cycles)
    if best is None:
        return replace(incumbent, candidates_searched=searched)
    return lattice_solution(space.lattice, *best,
                            candidates_searched=searched)
