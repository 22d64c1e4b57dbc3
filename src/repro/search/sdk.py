"""SDK baseline [2] (Zhang et al., TCAD 2020): square windows, whole channels.

SDK shifts and duplicates the kernel ``d x d`` times (``d^2`` copies, "in
the unit of square number") to form a square parallel window of side
``p = K + d - 1`` that is shared by all copies.  On a strided layer the
copies sit one stride apart, ``d`` kernel windows per axis, so the
window spans ``p = K + (d - 1)*s`` pixels (the paper's SDK is stride-1
only; this is the repo's extension).  It always maps *entire*
input channels: the ``p*p*IC`` window rows are laid out contiguously and
split across row tiles like an im2col column, so
``AR = ceil(p*p*IC / rows)``; the duplicated kernels of all output
channels need ``AC = ceil(OC * d^2 / cols)`` column tiles.

Selection rule (reconstructed from the paper's Table I; see DESIGN.md
section 2): grow ``d`` while the duplication introduces **no additional
tiling cycles over im2col** — i.e. while ``AR_sdk <= AR_im2col`` and
``AC_sdk <= AC_im2col`` — and keep the largest such ``d``.  Growing the
window only ever shrinks ``N_PW``, so under the constraint the largest
valid ``d`` is also the cheapest.  When no ``d >= 2`` qualifies, SDK
degenerates to im2col (Table I layers with 3x3 entries in the SDK
column).

This rule reproduces every SDK row and both SDK totals of Table I
(114697 for VGG-13, 7240 for ResNet-18 at 512x512).
"""

from __future__ import annotations

from typing import Optional

from ..api.registry import register_scheme
from ..core.array import PIMArray
from ..core.cycles import (
    CycleBreakdown,
    ar_cycles_fine_grained,
    im2col_cycles,
    num_parallel_windows,
)
from ..core.layer import ConvLayer
from ..core.types import ceil_div
from ..core.window import ParallelWindow
from .im2col import im2col_solution
from .result import MappingSolution

__all__ = ["sdk_solution", "sdk_window_for_duplication", "sdk_cycles_for"]


def sdk_window_for_duplication(layer: ConvLayer, d: int) -> ParallelWindow:
    """The window produced by ``d x d`` kernel duplication: ``d`` kernel
    windows per axis, ``K + (d - 1)*s`` pixels."""
    return ParallelWindow.spanning(layer, d, d)


def sdk_cycles_for(layer: ConvLayer, array: PIMArray,
                   d: int) -> Optional[CycleBreakdown]:
    """Cycle breakdown of the SDK mapping with duplication ``d x d``.

    Returns ``None`` when the window does not fit the IFM.
    """
    window = sdk_window_for_duplication(layer, d)
    if not window.fits_ifm(layer):
        return None
    ar = ceil_div(window.area * layer.in_channels, array.rows)
    ac = ceil_div(layer.out_channels * d * d, array.cols)
    ic_t = min(layer.in_channels,
               max(1, array.rows // window.area)) if ar > 1 else layer.in_channels
    oc_t = min(layer.out_channels, max(1, array.cols // (d * d)))
    return CycleBreakdown(
        n_pw=num_parallel_windows(layer, window),
        ar=ar,
        ac=ac,
        ic_t=ic_t,
        oc_t=oc_t,
    )


@register_scheme("sdk", capabilities=("baseline", "duplication",
                                      "square-window"),
                 summary="square-window SDK baseline [2]")
def sdk_solution(layer: ConvLayer, array: PIMArray) -> MappingSolution:
    """Run the SDK-based mapping algorithm of [2] for *layer* on *array*.

    >>> from repro.core import ConvLayer, PIMArray
    >>> layer = ConvLayer.square(112, 7, 3, 64, name="conv1")
    >>> sdk_solution(layer, PIMArray.square(512)).window   # ResNet-18 L1
    ParallelWindow(h=8, w=8)
    """
    baseline = im2col_cycles(layer, array)
    ar_budget = baseline.ar
    ac_budget = baseline.ac

    chosen_d = 1
    chosen: Optional[CycleBreakdown] = None
    d = 2
    searched = 0
    while True:
        candidate = sdk_cycles_for(layer, array, d)
        searched += 1
        if candidate is None or candidate.ar > ar_budget or candidate.ac > ac_budget:
            break
        chosen, chosen_d = candidate, d
        d += 1

    if chosen is None:
        fallback = im2col_solution(layer, array)
        return MappingSolution(
            scheme="sdk",
            layer=layer,
            array=array,
            window=fallback.window,
            breakdown=fallback.breakdown,
            duplication=1,
            candidates_searched=searched,
        )
    return MappingSolution(
        scheme="sdk",
        layer=layer,
        array=array,
        window=sdk_window_for_duplication(layer, chosen_d),
        breakdown=chosen,
        duplication=chosen_d * chosen_d,
        candidates_searched=searched,
    )
