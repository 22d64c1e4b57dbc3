"""repro — a reproduction of VW-SDK (DATE 2022).

VW-SDK maps convolutional layers onto processing-in-memory (PIM)
crossbars with *variable-shaped parallel windows* and *partial-channel
tiling*, minimising analytically-computed computing cycles.  This
package implements the paper's Algorithm 1, every baseline it compares
against (im2col, sub-matrix duplication, square-window SDK), a
functional crossbar simulator that executes the mappings, and drivers
regenerating every table and figure of the paper's evaluation.

Quickstart::

    from repro import ConvLayer, PIMArray, vwsdk_solution

    layer = ConvLayer.square(14, 3, 256, 256)   # ResNet-18 conv4_x
    sol = vwsdk_solution(layer, PIMArray.square(512))
    print(sol.describe())                        # 4x3 window, 504 cycles

Service-style use goes through the unified engine API — memoized,
batch-capable and JSON-serialisable::

    from repro import BatchRequest, MappingEngine, resnet18

    engine = MappingEngine()
    batch = BatchRequest.from_network(resnet18(), PIMArray.square(512),
                                      schemes=("im2col", "sdk", "vw-sdk"))
    result = engine.map_batch(batch)    # order-preserving, deduplicated
    print(result.stats)                 # cache hits/misses for the batch
    print(result.to_json())             # machine-readable envelope

New mapping schemes plug in with one decorator
(:func:`repro.api.register_scheme`) and are immediately available to
``solve``, ``map_network``, ``plan_pipeline``, the CLI and the engine.
"""

from .api import (
    BatchRequest,
    BatchResult,
    MappingEngine,
    MappingRequest,
    MappingResponse,
    SolverRegistry,
    default_engine,
    register_scheme,
)
from .chip import (
    ChipConfig,
    LayerAllocation,
    PipelinePlan,
    allocate_layer,
    plan_pipeline,
)
from .core import (
    ConfigurationError,
    ConvLayer,
    CostParams,
    CostReport,
    CycleBreakdown,
    DEVICE_PRESETS,
    GroupedMapping,
    MappingError,
    PAPER_ARRAY_SIZES,
    PIMArray,
    ParallelWindow,
    ReproError,
    cost_report,
    depthwise_mapping,
    grouped_mapping,
    im2col_cycles,
    preset,
    utilization_report,
    variable_window_cycles,
)
from .networks import (
    Network,
    NetworkMappingReport,
    compare_schemes,
    get_network,
    map_network,
    resnet18,
    resnet18_full,
    vgg13,
    vgg16,
)
from .search import (
    MappingSolution,
    exhaustive_solution,
    im2col_solution,
    sdk_solution,
    smd_solution,
    solve,
    vwsdk_solution,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core geometry & models
    "ConvLayer",
    "PIMArray",
    "PAPER_ARRAY_SIZES",
    "ParallelWindow",
    "CycleBreakdown",
    "im2col_cycles",
    "variable_window_cycles",
    "utilization_report",
    "CostParams",
    "CostReport",
    "cost_report",
    # searches
    "MappingSolution",
    "im2col_solution",
    "smd_solution",
    "sdk_solution",
    "vwsdk_solution",
    "exhaustive_solution",
    "solve",
    # networks
    "Network",
    "NetworkMappingReport",
    "map_network",
    "compare_schemes",
    "get_network",
    "vgg13",
    "vgg16",
    "resnet18",
    "resnet18_full",
    # unified engine API
    "MappingEngine",
    "MappingRequest",
    "BatchRequest",
    "MappingResponse",
    "BatchResult",
    "SolverRegistry",
    "register_scheme",
    "default_engine",
    # chip-level deployment
    "ChipConfig",
    "LayerAllocation",
    "allocate_layer",
    "PipelinePlan",
    "plan_pipeline",
    # extensions
    "GroupedMapping",
    "grouped_mapping",
    "depthwise_mapping",
    "DEVICE_PRESETS",
    "preset",
    # errors
    "ReproError",
    "ConfigurationError",
    "MappingError",
]
