"""Core geometry and the paper's analytical models.

Public surface:

* :class:`ConvLayer`, :class:`PIMArray`, :class:`ParallelWindow` — the
  problem vocabulary.
* :mod:`repro.core.cycles` — eqs. 1-8 (cycle counts).
* :mod:`repro.core.lattice` — eqs. 1-8 vectorized over the whole
  parallel-window grid (the shared search core).
* :mod:`repro.core.utilization` — eq. 9 (used-cell fractions).
* :mod:`repro.core.cost` — latency/energy on top of cycles.
* :mod:`repro.core.backend` — pluggable compute backends (numpy
  reference / optional numba JIT) and minimized dtypes.
"""

from .array import PAPER_ARRAY_SIZES, PIMArray
from .backend import (
    HAVE_NUMBA,
    Backend,
    NumbaBackend,
    NumpyBackend,
    get_backend,
    minimal_dtype,
)
from .cycles import (
    CycleBreakdown,
    ac_cycles,
    ar_cycles_fine_grained,
    ar_cycles_whole_channel,
    im2col_cycles,
    num_parallel_windows,
    num_windows,
    parallel_window_grid,
    tiled_input_channels,
    tiled_output_channels,
    variable_window_cycles,
)
from .cost import DEFAULT_COST_PARAMS, CostParams, CostReport, cost_report
from .grouped import GroupedMapping, depthwise_mapping, grouped_mapping
from .lattice import (
    CycleLattice,
    LayerLattice,
    layer_lattice,
    window_lattice,
)
from .layer import ConvLayer
from .presets import DEVICE_PRESETS, preset
from .sweep import NetworkLattice, network_lattice
from .types import ConfigurationError, MappingError, ReproError, ceil_div
from .utilization import (
    TileUsage,
    UtilizationReport,
    tile_sizes,
    utilization_report,
)
from .window import ParallelWindow, iter_candidate_windows

__all__ = [
    "ConvLayer",
    "PIMArray",
    "PAPER_ARRAY_SIZES",
    "ParallelWindow",
    "iter_candidate_windows",
    "CycleBreakdown",
    "num_windows",
    "parallel_window_grid",
    "num_parallel_windows",
    "tiled_input_channels",
    "tiled_output_channels",
    "ar_cycles_whole_channel",
    "ar_cycles_fine_grained",
    "ac_cycles",
    "variable_window_cycles",
    "im2col_cycles",
    "CycleLattice",
    "LayerLattice",
    "layer_lattice",
    "window_lattice",
    "NetworkLattice",
    "network_lattice",
    "Backend",
    "NumpyBackend",
    "NumbaBackend",
    "get_backend",
    "minimal_dtype",
    "HAVE_NUMBA",
    "TileUsage",
    "UtilizationReport",
    "utilization_report",
    "tile_sizes",
    "CostParams",
    "CostReport",
    "cost_report",
    "DEFAULT_COST_PARAMS",
    "DEVICE_PRESETS",
    "preset",
    "GroupedMapping",
    "grouped_mapping",
    "depthwise_mapping",
    "ReproError",
    "ConfigurationError",
    "MappingError",
    "ceil_div",
]
