"""End-to-end fidelity replay: planning solutions run on the PIM stack.

The planning layers (lattice, chip sweep, pareto) choose mappings from
the analytical cycle model alone; the functional stack under
:mod:`repro.pim` can actually *execute* those mappings.  This module
closes the loop: it takes the per-stage
:class:`~repro.search.result.MappingSolution` objects behind a chip
design point, executes each through :class:`~repro.pim.engine.PIMEngine`
on seeded random inputs, and scores the output against the
:func:`~repro.pim.reference.conv2d_reference` oracle.

Two regimes, one contract:

* under :class:`~repro.pim.noise.NoNoise` the replay must be
  **bit-exact** — integer-valued float64 inputs make the crossbar
  accumulation exact, so any difference is a mapping bug, not rounding;
* under a device-noise model (:class:`~repro.pim.noise.LognormalNoise`,
  :class:`~repro.pim.noise.StuckCells`, compositions) the replay yields
  an ``accuracy_proxy`` in ``(0, 1]`` — ``1 / (1 + NRMSE)`` over every
  output of every stage — which
  :func:`repro.dse.pareto.chip_pareto(..., fidelity=...)
  <repro.dse.pareto.chip_pareto>` attaches to each frontier point,
  turning the 3-D cells/energy/latency frontier into a 4-D one with
  accuracy.

Everything is deterministic: inputs and crossbar noise streams derive
from ``(spec.seed, stage index)`` seed sequences, so a report is
replayable from its :class:`FidelitySpec` alone — which is also why
the engine can memoize reports under keys that include the noise model
(see the cache inventory in ``docs/architecture.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..core.types import ConfigurationError
from ..search.result import MappingSolution
from .crossbar import Crossbar
from .engine import PIMEngine
from .noise import ComposedNoise, LognormalNoise, NoNoise, StuckCells, \
    make_noise
from .reference import conv2d_reference

__all__ = ["FidelitySpec", "StageFidelity", "FidelityReport",
           "replay_stage", "replay_point", "main"]

#: Any of the frozen noise dataclasses from :mod:`repro.pim.noise` (they
#: share the ``apply(weights, mask, rng)`` protocol, not a base class).
NoiseModel = Union[NoNoise, LognormalNoise, StuckCells, ComposedNoise]

#: Inputs are integer-valued floats drawn from ``[DATA_LOW, DATA_HIGH)``
#: — small enough that float64 accumulation is exact, so the ideal
#: replay can demand bit-equality with the reference oracle.
DATA_LOW, DATA_HIGH = -4, 5


@dataclass(frozen=True)
class FidelitySpec:
    """One replay configuration: a noise model plus the master seed.

    Hashable (noise models are frozen dataclasses), so engines can fold
    a spec straight into their memo keys — two sweeps under different
    noise models never share a cached fidelity report.

    >>> FidelitySpec.of(0.1).noise
    LognormalNoise(sigma=0.1)
    >>> FidelitySpec.of(None).noise
    NoNoise()
    """

    noise: NoiseModel = NoNoise()
    seed: int = 0

    def __post_init__(self) -> None:
        if not callable(getattr(self.noise, "apply", None)):
            raise ConfigurationError(
                f"noise must provide apply(weights, mask, rng), got "
                f"{type(self.noise).__name__}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) \
                or self.seed < 0:
            raise ConfigurationError(
                f"seed must be a non-negative int, got {self.seed!r}")

    @classmethod
    def of(cls, value: object, seed: int = 0) -> "FidelitySpec":
        """Coerce *value* to a spec.

        Accepts a ready :class:`FidelitySpec`, a noise model, a
        lognormal ``sigma`` as a plain number (``0`` means ideal), or
        ``None`` / ``True`` for the ideal :class:`NoNoise` replay.
        """
        if isinstance(value, cls):
            return value
        if value is None or value is True:
            return cls(seed=seed)
        if isinstance(value, bool):
            return cls(seed=seed)
        if isinstance(value, (int, float)):
            if value < 0:
                raise ConfigurationError(
                    f"fidelity sigma must be >= 0, got {value}")
            return cls(noise=make_noise(sigma=float(value)), seed=seed)
        return cls(noise=value, seed=seed)  # type: ignore[arg-type]

    def describe(self) -> str:
        """Compact human label, e.g. ``"LognormalNoise(sigma=0.1)/s0"``."""
        return f"{self.noise!r}/s{self.seed}"


@dataclass(frozen=True)
class StageFidelity:
    """Replay outcome of one pipeline stage (one mapping solution)."""

    scheme: str
    shape: str
    cycles: int
    exact: bool
    #: Sum of squared output errors vs the reference oracle.
    error_sq: float
    #: Sum of squared reference outputs (signal power x count).
    reference_sq: float
    max_abs_error: float

    @property
    def nrmse(self) -> float:
        """``||out - ref|| / ||ref||`` for this stage alone."""
        # Exact zero of a sum of squares means "no signal"/"no error" —
        # a well-defined float identity, not a rounded total.
        if self.reference_sq == 0.0:  # repro: noqa[REP005]
            return 0.0 if self.error_sq == 0.0 else math.inf  # repro: noqa[REP005]
        return math.sqrt(self.error_sq / self.reference_sq)


@dataclass(frozen=True)
class FidelityReport:
    """Aggregate replay outcome of a whole design point.

    The headline number is :attr:`accuracy_proxy` — ``1 / (1 + NRMSE)``
    over every output element of every stage.  It is exactly ``1.0``
    iff the replay is bit-identical to the reference oracle (always the
    case under :class:`~repro.pim.noise.NoNoise`), and decays toward 0
    as device noise grows.
    """

    spec: FidelitySpec
    stages: Tuple[StageFidelity, ...]

    @property
    def exact(self) -> bool:
        """Whether every stage matched the oracle bit for bit."""
        return all(stage.exact for stage in self.stages)

    @property
    def error_norm(self) -> float:
        """Frobenius norm of the error over all stages' outputs."""
        return math.sqrt(math.fsum(s.error_sq for s in self.stages))

    @property
    def reference_norm(self) -> float:
        """Frobenius norm of the reference outputs over all stages."""
        return math.sqrt(math.fsum(s.reference_sq for s in self.stages))

    @property
    def nrmse(self) -> float:
        """Relative error norm; 0 for a bit-exact replay."""
        ref = self.reference_norm
        # Exact-zero norms are well-defined (all-zero squared terms).
        if ref == 0.0:  # repro: noqa[REP005]
            return 0.0 if self.error_norm == 0.0 else math.inf  # repro: noqa[REP005]
        return self.error_norm / ref

    @property
    def accuracy_proxy(self) -> float:
        """``1 / (1 + NRMSE)`` in ``(0, 1]``; 1.0 iff bit-exact."""
        nrmse = self.nrmse
        if math.isinf(nrmse):
            return 0.0
        return 1.0 / (1.0 + nrmse)

    @property
    def snr_db(self) -> float:
        """Output signal-to-noise ratio in dB (``inf`` when exact)."""
        if self.error_norm == 0.0:  # repro: noqa[REP005] — exact zero
            return math.inf
        if self.reference_norm == 0.0:  # repro: noqa[REP005] — exact zero
            return -math.inf
        return 20.0 * math.log10(self.reference_norm / self.error_norm)


def _stage_rng(seed: int, stage: int, stream: int) -> np.random.Generator:
    """Independent deterministic generator per (seed, stage, stream)."""
    return np.random.default_rng(np.random.SeedSequence((seed, stage,
                                                         stream)))


def _stage_seed(seed: int, stage: int, stream: int) -> int:
    """Plain-int form of :func:`_stage_rng`'s seed (for ``Crossbar``)."""
    state = np.random.SeedSequence((seed, stage, stream)).generate_state(1)
    return int(state[0])


def stage_inputs(solution: MappingSolution, seed: int = 0,
                 stage: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded integer-valued ``(ifm, kernel)`` for one stage's layer."""
    layer = solution.layer
    rng = _stage_rng(seed, stage, 0)
    ifm = rng.integers(DATA_LOW, DATA_HIGH,
                       (layer.in_channels, layer.ifm_h,
                        layer.ifm_w)).astype(np.float64)
    kernel = rng.integers(DATA_LOW, DATA_HIGH,
                          (layer.out_channels, layer.in_channels,
                           layer.kernel_h,
                           layer.kernel_w)).astype(np.float64)
    return ifm, kernel


def replay_stage(solution: MappingSolution, *,
                 noise: NoiseModel = NoNoise(), seed: int = 0,
                 stage: int = 0) -> StageFidelity:
    """Execute one solution on the PIM stack and score it.

    The crossbar is programmed under *noise* with its own deterministic
    stream (independent of the data stream), so the same ``(seed,
    stage)`` pair always reproduces the same report — and sweeping only
    the noise model keeps inputs and noise draws aligned across models.

    >>> from repro.core import ConvLayer, PIMArray
    >>> from repro.search import vwsdk_solution
    >>> sol = vwsdk_solution(ConvLayer.square(8, 3, 4, 4),
    ...                      PIMArray.square(64))
    >>> replay_stage(sol).exact
    True
    """
    layer = solution.layer
    ifm, kernel = stage_inputs(solution, seed, stage)
    crossbar = Crossbar(solution.array, noise=noise,
                        seed=_stage_seed(seed, stage, 1))
    result = PIMEngine(crossbar=crossbar).run(solution, ifm, kernel)
    reference = conv2d_reference(ifm, kernel, stride=layer.stride,
                                 padding=layer.padding)
    error = result.ofm - reference
    return StageFidelity(
        scheme=solution.scheme,
        shape=layer.shape_str,
        cycles=result.cycles,
        exact=bool(np.array_equal(result.ofm, reference)),
        error_sq=float(np.sum(error * error)),
        reference_sq=float(np.sum(reference * reference)),
        max_abs_error=float(np.max(np.abs(error))) if error.size else 0.0)


def replay_point(point: object, *, noise: NoiseModel = NoNoise(),
                 seed: int = 0) -> FidelityReport:
    """Replay every per-stage solution of a design point.

    *point* is a sequence of :class:`MappingSolution` objects or
    anything carrying them in a ``solutions`` attribute (a
    :class:`repro.dse.pareto.ChipDesignPoint`, a
    :class:`repro.chip.sweep.ChipLattice`).  Stage ``i`` draws its own
    inputs from ``(seed, i)``, so reports are invariant to how many
    *other* points share a stage's geometry.

    >>> from repro.core import ConvLayer, PIMArray
    >>> from repro.search import vwsdk_solution
    >>> sols = [vwsdk_solution(ConvLayer.square(8, 3, 4, 4),
    ...                        PIMArray.square(64))]
    >>> replay_point(sols).accuracy_proxy
    1.0
    """
    solutions = getattr(point, "solutions", point)
    spec = FidelitySpec(noise=noise, seed=seed)
    stages = tuple(solutions)  # type: ignore[arg-type]
    if not stages:
        raise ConfigurationError("replay_point needs >= 1 solution")
    reports = tuple(
        replay_stage(solution, noise=spec.noise, seed=spec.seed,
                     stage=index)
        for index, solution in enumerate(stages))
    return FidelityReport(spec=spec, stages=reports)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Fidelity-replay smoke: frontier points scored end to end.

    ``python -m repro.pim.replay resnet18 --sides 256,512 --sigma 0.1``
    runs :func:`repro.dse.pareto.chip_pareto` with a fidelity spec,
    prints each frontier point with its accuracy proxy, *and* verifies
    the ideal (:class:`NoNoise`) replay of every distinct plan is
    bit-exact against the reference oracle — exit 1 on any mismatch.
    """
    import argparse
    parser = argparse.ArgumentParser(
        prog="python -m repro.pim.replay",
        description="replay chip_pareto frontier points through the "
                    "functional PIM stack")
    parser.add_argument("network", help="model-zoo network name")
    parser.add_argument("--sides", default="256,512",
                        help="comma-separated square sides (default "
                             "256,512)")
    parser.add_argument("--sigma", type=float, default=0.0,
                        help="lognormal conductance sigma (default 0)")
    parser.add_argument("--stuck", type=float, default=0.0,
                        help="stuck-at-off cell probability (default 0)")
    parser.add_argument("--seed", type=int, default=0,
                        help="replay seed (default 0)")
    parser.add_argument("--pools", action="store_true",
                        help="include the heterogeneous best-fit plan")
    args = parser.parse_args(argv)

    from ..api.engine import MappingEngine
    from ..core.array import PIMArray
    from ..dse.pareto import chip_pareto
    from ..networks.zoo import get_network

    sides = [int(s) for s in args.sides.split(",") if s]
    spec = FidelitySpec(noise=make_noise(sigma=args.sigma, stuck=args.stuck),
                        seed=args.seed)
    engine = MappingEngine()
    front = chip_pareto(get_network(args.network),
                        [PIMArray.square(s) for s in sides],
                        pools=args.pools, engine=engine, fidelity=spec)
    for point in front:
        print(f"{point.pool:>10}  arrays={point.num_arrays:<6} "
              f"bottleneck={point.bottleneck_cycles:<8} "
              f"accuracy={point.accuracy_proxy:.6f}")

    failures = 0
    seen = set()
    for point in front:
        key = tuple(id(s) for s in point.solutions)
        if key in seen:
            continue
        seen.add(key)
        ideal = replay_point(point, seed=args.seed)
        if not ideal.exact:
            failures += 1
            print(f"FAIL: ideal replay of plan {point.pool!r} diverges "
                  f"from conv2d_reference (nrmse={ideal.nrmse:.3e})")
    if failures:
        return 1
    print(f"ok: {len(front)} frontier point(s), {len(seen)} distinct "
          f"plan(s) bit-exact under NoNoise; noise={spec.describe()}")
    return 0


if __name__ == "__main__":  # pragma: no cover - module CLI
    # Run the imported module's main, not this ``__main__`` copy's, so
    # isinstance checks downstream (FidelitySpec.of in chip_pareto) see
    # one FidelitySpec class.
    from repro.pim.replay import main as _main
    raise SystemExit(_main())
