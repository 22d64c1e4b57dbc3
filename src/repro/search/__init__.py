"""Mapping searches: the paper's Algorithm 1 and all baselines.

========  ====================================================
scheme    function
========  ====================================================
im2col    :func:`repro.search.im2col.im2col_solution` [4]
smd       :func:`repro.search.smd.smd_solution` [6]
sdk       :func:`repro.search.sdk.sdk_solution` [2]
vw-sdk    :func:`repro.search.vwsdk.vwsdk_solution` (Algorithm 1)
========  ====================================================

:func:`solve` dispatches by scheme name, which is what the CLI and the
network-level analysis use.  Dispatch goes through the shared
:class:`repro.api.MappingEngine`, so repeated ``(layer geometry, array,
scheme)`` problems are answered from its memo instead of re-running the
search; the solvers register themselves in
:data:`repro.api.DEFAULT_REGISTRY`, which lists the scheme names.
"""

from __future__ import annotations

from typing import Tuple

from ..core.array import PIMArray
from ..core.layer import ConvLayer
from .ablation import vwsdk_full_channels_only, vwsdk_square_only
from .exhaustive import cycle_landscape, enumerate_feasible, exhaustive_solution
from .im2col import im2col_solution
from .result import MappingSolution, best_of
from .sdk import sdk_cycles_for, sdk_solution, sdk_window_for_duplication
from .smd import smd_duplication, smd_solution
from .space import SEARCH_ORDERS, CandidateSpace, lattice_solution
from .vwsdk import evaluate_window, vwsdk_solution

__all__ = [
    "MappingSolution",
    "best_of",
    "im2col_solution",
    "smd_solution",
    "smd_duplication",
    "sdk_solution",
    "sdk_cycles_for",
    "sdk_window_for_duplication",
    "vwsdk_solution",
    "vwsdk_square_only",
    "vwsdk_full_channels_only",
    "evaluate_window",
    "exhaustive_solution",
    "enumerate_feasible",
    "cycle_landscape",
    "CandidateSpace",
    "lattice_solution",
    "SEARCH_ORDERS",
    "solve",
]

#: The three schemes the paper's evaluation compares (Figs. 8-9).
PAPER_SCHEMES: Tuple[str, ...] = ("im2col", "sdk", "vw-sdk")


def solve(layer: ConvLayer, array: PIMArray, scheme: str) -> MappingSolution:
    """Map *layer* onto *array* using *scheme* (by name).

    Routes through the shared :func:`repro.api.default_engine`, so a
    repeated problem is served from its solution memo.  Raises
    :class:`repro.api.UnknownSchemeError` (a ``ValueError``) for
    unregistered names.

    >>> from repro.core import ConvLayer, PIMArray
    >>> solve(ConvLayer.square(14, 3, 256, 256), PIMArray.square(512),
    ...       "vw-sdk").cycles
    504
    """
    from ..api.engine import default_engine  # lazy: breaks import cycle
    return default_engine().solve(layer, array, scheme)
