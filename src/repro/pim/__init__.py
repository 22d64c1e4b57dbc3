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
from .replay import (
    FidelityReport,
    FidelitySpec,
    StageFidelity,
    replay_point,
    replay_stage,
    stage_inputs,
)
from .trace import CycleRecord, ExecutionTrace

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
