"""Functional PIM crossbar simulator.

This subpackage is the substrate the paper assumes but does not ship: a
crossbar that can be programmed with any mapping layout and executed
cycle by cycle, with optional DAC/ADC quantisation and conductance
noise.  The engine's contract — OFM equals direct convolution, executed
cycles equal the analytical count — is what makes the analytical
reproduction trustworthy.
"""

from .adc import IdealADC, LinearADC
from .crossbar import Crossbar
from .dac import IdealDAC, UniformDAC
from .engine import ExecutionResult, PIMEngine
from .grouped_exec import (
    GroupedExecution,
    grouped_conv2d_reference,
    run_grouped,
)
from .noise import ComposedNoise, LognormalNoise, NoNoise, StuckCells, make_noise
from .reference import conv2d_naive, conv2d_reference, pad_ifm
from .trace import CycleRecord, ExecutionTrace

#: Names of :mod:`.replay`, imported on first access (PEP 562): runpy
#: warns when ``python -m repro.pim.replay`` finds the module already
#: imported by its package.
_REPLAY_NAMES = ("FidelityReport", "FidelitySpec", "StageFidelity",
                 "replay_point", "replay_stage", "stage_inputs")


def __getattr__(name: str) -> object:
    if name in _REPLAY_NAMES:
        from . import replay
        return getattr(replay, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Crossbar",
    "PIMEngine",
    "ExecutionResult",
    "IdealADC",
    "LinearADC",
    "IdealDAC",
    "UniformDAC",
    "NoNoise",
    "LognormalNoise",
    "StuckCells",
    "ComposedNoise",
    "make_noise",
    "conv2d_reference",
    "conv2d_naive",
    "pad_ifm",
    "GroupedExecution",
    "grouped_conv2d_reference",
    "run_grouped",
    "CycleRecord",
    "ExecutionTrace",
    "FidelitySpec",
    "StageFidelity",
    "FidelityReport",
    "replay_stage",
    "replay_point",
    "stage_inputs",
]
