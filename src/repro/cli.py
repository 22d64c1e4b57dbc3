"""Command-line interface: ``vwsdk`` (or ``python -m repro``).

Subcommands
-----------
map
    Map one convolutional layer onto an array with any scheme and print
    the full solution (window, tiled channels, cycle breakdown,
    utilization, latency/energy estimate).  ``--json`` emits the
    machine-readable :class:`repro.api.MappingResponse` envelope
    instead.
network
    Map a zoo network (or all layers of a custom one) and print the
    per-layer table plus totals and speedups.  ``--json`` emits the
    :class:`repro.api.BatchResult` envelope covering every
    (scheme, layer) pair.
experiments
    Regenerate every paper table/figure and print the verification
    scoreboard (exit status reflects it).
landscape
    Print the full cycle landscape over all windows for one layer —
    the design-space view behind Algorithm 1.
dse
    Design-space exploration.  ``dse sweep`` prints the cells-vs-cycles
    array frontier of a network — non-square ``(rows, cols)``
    candidates with ``--non-square``, one batched lattice sweep either
    way.
chip
    Multi-array deployment.  ``chip plan`` allocates one chip with the
    greedy min-max pipeline planner; ``chip sweep`` replays the shared
    :class:`~repro.chip.sweep.ChipLattice` over a whole grid of array
    counts; ``chip pareto`` prints the cells/energy/latency deployment
    frontier (``--pools`` adds the heterogeneous best-fit plan,
    ``--cost-params FILE`` overrides the energy model).
serve
    Run the mapping service: an asyncio HTTP/1.1 JSON front door over
    a process-pool worker tier (``/v1/map``, ``/v1/map_batch``,
    ``/v1/network_sweep``, ``/v1/chip_pareto``, ``/v1/healthz``,
    ``/v1/stats``), with ``--store`` as the fleet-wide warm L2 every
    worker mounts.  See ``docs/serving.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .api import (DEFAULT_REGISTRY, BatchRequest, MappingRequest,
                  default_engine)
from .core import ConvLayer, PIMArray, cost_report, utilization_report
from .networks import compare_schemes, get_network
from .reporting import format_table
from .search import PAPER_SCHEMES, cycle_landscape

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="vwsdk",
        description="VW-SDK convolutional weight mapping for PIM arrays "
                    "(DATE 2022 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)
    schemes = sorted(DEFAULT_REGISTRY.names())

    p_map = sub.add_parser("map", help="map one conv layer")
    p_map.add_argument("--ifm", type=int, required=True,
                       help="square IFM size (stride-1 folded view)")
    p_map.add_argument("--kernel", type=int, default=3, help="kernel size")
    p_map.add_argument("--ic", type=int, required=True,
                       help="input channels")
    p_map.add_argument("--oc", type=int, required=True,
                       help="output channels")
    p_map.add_argument("--array", default="512x512",
                       help="array as ROWSxCOLS (default 512x512)")
    p_map.add_argument("--scheme", default="vw-sdk",
                       choices=schemes, help="mapping scheme")
    p_map.add_argument("--json", action="store_true",
                       help="print the MappingResponse envelope as JSON")
    p_map.add_argument("--store", metavar="FILE", default=None,
                       help="crash-safe persistent solution store (JSONL) "
                            "consulted before solving and appended after")

    p_net = sub.add_parser("network", help="map a zoo or custom network")
    p_net.add_argument("name", nargs="?", default=None,
                       help="zoo network, e.g. vgg13, resnet18")
    p_net.add_argument("--file", default=None,
                       help="JSON network description (see "
                            "repro.networks.io) instead of a zoo name; "
                            "its layers are planned as written, strides "
                            "and padding included")
    p_net.add_argument("--array", default="512x512",
                       help="array as ROWSxCOLS")
    p_net.add_argument("--json", action="store_true",
                       help="print the BatchResult envelope as JSON")
    p_net.add_argument("--store", metavar="FILE", default=None,
                       help="crash-safe persistent solution store (JSONL) "
                            "consulted before solving and appended after")

    p_exp = sub.add_parser(
        "experiments",
        help="regenerate all paper tables/figures and verify")
    p_exp.add_argument("--export", metavar="DIR", default=None,
                       help="also write CSV/JSON artifacts to DIR")

    p_land = sub.add_parser("landscape",
                            help="cycle landscape over all windows")
    p_land.add_argument("--ifm", type=int, required=True)
    p_land.add_argument("--kernel", type=int, default=3)
    p_land.add_argument("--ic", type=int, required=True)
    p_land.add_argument("--oc", type=int, required=True)
    p_land.add_argument("--array", default="512x512")
    p_land.add_argument("--top", type=int, default=15,
                        help="show the best N windows")

    p_dse = sub.add_parser("dse", help="design-space exploration")
    dse_sub = p_dse.add_subparsers(dest="dse_command", required=True)
    p_front = dse_sub.add_parser(
        "sweep", help="cells-vs-cycles array frontier for a network")
    p_front.add_argument("name", help="zoo network, e.g. resnet18")
    p_front.add_argument("--scheme", default="vw-sdk",
                         choices=schemes)
    p_front.add_argument("--max-cells", type=int, default=512 * 512,
                         help="total-cells budget per candidate array "
                              "(default 512*512)")
    p_front.add_argument("--non-square", action="store_true",
                         help="vary rows and cols independently instead "
                              "of sweeping squares only")
    p_front.add_argument("--sides", default=None,
                         help="comma-separated side lengths overriding "
                              "the default ladder")
    p_front.add_argument("--backend", default="auto",
                         choices=("auto", "numpy", "numba"),
                         help="lattice compute backend (auto = numba "
                              "when installed, else numpy)")

    p_chip = sub.add_parser(
        "chip", help="weight-resident pipelines on many arrays")
    chip_sub = p_chip.add_subparsers(dest="chip_command", required=True)
    p_plan = chip_sub.add_parser(
        "plan", help="plan one chip with the greedy pipeline allocator")
    p_plan.add_argument("name", help="zoo network, e.g. resnet18")
    p_plan.add_argument("--array", default="512x512",
                        help="crossbar geometry")
    p_plan.add_argument("--arrays", type=int, default=64,
                        help="number of crossbars on the chip")
    p_plan.add_argument("--scheme", default="vw-sdk",
                        choices=schemes)
    p_sweep = chip_sub.add_parser(
        "sweep", help="greedy outcomes over a grid of array counts")
    p_sweep.add_argument("name", help="zoo network, e.g. resnet18")
    p_sweep.add_argument("--array", default="512x512",
                         help="crossbar geometry")
    p_sweep.add_argument("--counts", default=None,
                         help="probe grid as LO:HI[:STEP] or a comma "
                              "list (default: residency floor to 8x "
                              "floor in 32 steps)")
    p_sweep.add_argument("--scheme", default="vw-sdk",
                         choices=schemes)
    p_sweep.add_argument("--backend", default="auto",
                         choices=("auto", "numpy", "numba"),
                         help="lattice compute backend (auto = numba "
                              "when installed, else numpy)")
    p_sweep.add_argument("--deadline-ms", type=float, default=None,
                         help="wall budget for the sweep; on expiry the "
                              "exit is typed (status 3) and reports the "
                              "probes already finished")
    p_pareto = chip_sub.add_parser(
        "pareto", help="cells/energy/latency chip deployment frontier")
    p_pareto.add_argument("name", help="zoo network, e.g. resnet18")
    p_pareto.add_argument("--scheme", default="vw-sdk",
                          choices=schemes)
    p_pareto.add_argument("--pools", action="store_true",
                          help="also consider the heterogeneous "
                               "best-fit pool plan (mixed geometries)")
    p_pareto.add_argument("--cost-params", metavar="FILE", default=None,
                          help="JSON file of CostParams overrides "
                               "(see repro.core.cost)")
    p_pareto.add_argument("--max-cells", type=int, default=512 * 512,
                          help="total-cells budget per candidate "
                               "geometry (default 512*512)")
    p_pareto.add_argument("--sides", default=None,
                          help="comma-separated side lengths overriding "
                               "the default square ladder")
    p_pareto.add_argument("--max-arrays", type=int, default=None,
                          help="cap the probed chip array counts")
    p_pareto.add_argument("--target-bottleneck", type=int, default=None,
                          help="keep only plans meeting this "
                               "steady-state cycle target")
    p_pareto.add_argument("--fidelity", type=float, default=None,
                          metavar="SIGMA",
                          help="replay each frontier point through the "
                               "functional PIM engine under lognormal "
                               "conductance noise of this sigma (0 = "
                               "noise-free bit-exactness check) and "
                               "print the accuracy proxy column")
    p_pareto.add_argument("--backend", default="auto",
                          choices=("auto", "numpy", "numba"),
                          help="lattice compute backend (auto = numba "
                               "when installed, else numpy)")

    p_serve = sub.add_parser(
        "serve", help="run the async HTTP mapping service")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="bind port (default 8080; 0 = ephemeral)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="worker processes for lattice work "
                              "(one call at a time each)")
    p_serve.add_argument("--store", metavar="FILE", default=None,
                         help="shared SolutionStore every worker mounts "
                              "as its warm L2 (flock-guarded JSONL)")
    p_serve.add_argument("--backend", default="auto",
                         choices=("auto", "numpy", "numba"),
                         help="worker engines' compute backend")
    p_serve.add_argument("--cache-size", type=int, default=4096,
                         help="per-worker engine LRU size")
    p_serve.add_argument("--memo-size", type=int, default=1024,
                         help="server-side response memo entries "
                              "(0 disables)")
    p_serve.add_argument("--fault-injection", action="store_true",
                         help="enable POST /v1/_crash_worker (tests/CI "
                              "only — never in production)")
    return parser


def _engine_for(backend: str, store: Optional[str] = None):
    """The engine serving a ``--backend`` / ``--store`` choice.

    ``auto`` without a store keeps the process-wide shared engine
    (warm memos); an explicit backend or a ``--store`` path gets a
    dedicated engine so its name lands in every memo key and its store
    counters in ``stats``.  An impossible choice (``numba`` without
    numba installed, an unopenable store file) exits with the
    resolver's message instead of failing mid-sweep.
    """
    if backend == "auto" and store is None:
        return default_engine()
    from .api import MappingEngine
    from .core import ConfigurationError
    solution_store = None
    if store is not None:
        from .runtime import SolutionStore, StoreCorruptionError
        try:
            solution_store = SolutionStore(store)
        except (OSError, StoreCorruptionError) as error:
            raise SystemExit(f"--store: {error}") from None
    try:
        return MappingEngine(backend=backend, store=solution_store)
    except ConfigurationError as error:
        raise SystemExit(f"--backend: {error}") from None


def _layer_from_args(args: argparse.Namespace) -> ConvLayer:
    return ConvLayer.square(args.ifm, args.kernel, args.ic, args.oc)


def _cmd_map(args: argparse.Namespace) -> int:
    layer = _layer_from_args(args)
    array = PIMArray.parse(args.array)
    response = _engine_for("auto", args.store).map(
        MappingRequest(layer=layer, array=array, scheme=args.scheme))
    if args.json:
        print(response.to_json())
        return 0
    solution = response.solution
    print(solution.describe())
    util = utilization_report(solution)
    print(f"utilization       : mean {util.mean_pct:.1f}%  "
          f"peak {util.peak_pct:.1f}%")
    cost = cost_report(solution, utilization=util)
    print(f"latency estimate  : {cost.latency_us:.2f} us "
          f"(at {cost.params.cycle_time_ns:.0f} ns/cycle)")
    print(f"energy estimate   : {cost.total_energy_nj:.1f} nJ "
          f"({cost.conversion_fraction * 100:.0f}% in conversions)")
    return 0


def _cmd_network(args: argparse.Namespace) -> int:
    if args.file:
        from .networks import load_network
        network = load_network(args.file)
    elif args.name:
        network = get_network(args.name)
    else:
        raise SystemExit("network: give a zoo name or --file PATH")
    array = PIMArray.parse(args.array)
    engine = _engine_for("auto", args.store)
    if args.json:
        batch = BatchRequest.from_network(network, array,
                                          schemes=PAPER_SCHEMES)
        print(engine.map_batch(batch).to_json())
        return 0
    reports = compare_schemes(network, array, engine=engine)
    vw = reports["vw-sdk"]
    rows = []
    for i, layer in enumerate(network):
        row = {"#": i + 1, "layer": layer.name,
               "image": f"{layer.ifm_h}x{layer.ifm_w}",
               "kernel": layer.shape_str}
        for scheme, rep in reports.items():
            row[scheme] = rep.solutions[i].cycles
        row["window"] = str(vw.solutions[i].window)
        rows.append(row)
    print(format_table(rows, title=f"{network.name} on {array}"))
    totals = {scheme: rep.total_cycles for scheme, rep in reports.items()}
    print("totals: " + "  ".join(f"{s}={c}" for s, c in totals.items()))
    im = reports["im2col"]
    print(f"VW-SDK speedup: {vw.speedup_over(im):.2f}x vs im2col, "
          f"{vw.speedup_over(reports['sdk']):.2f}x vs SDK")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.runner import main as run_experiments
    status = run_experiments()
    if args.export:
        from .experiments.export import export_all
        paths = export_all(args.export)
        print(f"exported {len(paths)} artifacts to {args.export}")
    return status


def _cmd_landscape(args: argparse.Namespace) -> int:
    layer = _layer_from_args(args)
    array = PIMArray.parse(args.array)
    landscape = sorted(cycle_landscape(layer, array), key=lambda kv: kv[1])
    rows = [{"window": str(win), "cycles": cycles}
            for win, cycles in landscape[:args.top]]
    print(format_table(
        rows, title=f"best {args.top} windows for {layer.describe()} "
                    f"on {array} ({len(landscape)} feasible)"))
    return 0


def _parse_counts(spec: str) -> List[int]:
    """Parse a ``--counts`` probe grid: ``LO:HI[:STEP]`` or a comma list."""
    try:
        if ":" in spec:
            parts = [int(p) for p in spec.split(":")]
            if len(parts) not in (2, 3):
                raise ValueError("expected 2 or 3 fields")
            lo, hi = parts[0], parts[1]
            if lo > hi:
                raise ValueError(f"empty range {lo}:{hi}")
            step = parts[2] if len(parts) == 3 else max(1, (hi - lo) // 32)
            if step < 1:
                raise ValueError(f"step must be >= 1, got {step}")
            return list(range(lo, hi + 1, step))
        counts = [int(p) for p in spec.split(",") if p.strip()]
        if not counts:
            raise ValueError("no counts given")
        return counts
    except ValueError as error:
        raise SystemExit(
            f"--counts: expected LO:HI[:STEP] or a comma list of "
            f"integers, got {spec!r} ({error})") from None


def _cmd_dse(args: argparse.Namespace) -> int:
    from .dse import array_pareto
    network = get_network(args.name)
    try:
        sides = ([int(s) for s in args.sides.split(",") if s.strip()]
                 if args.sides else None)
    except ValueError as error:
        raise SystemExit(f"dse sweep: {error}") from None
    from .core import ConfigurationError
    try:
        front = array_pareto(network, scheme=args.scheme,
                             max_cells=args.max_cells, sides=sides,
                             square_only=not args.non_square,
                             engine=_engine_for(args.backend))
    except ConfigurationError as error:
        # e.g. --sides entries that all exceed --max-cells.
        raise SystemExit(f"dse sweep: {error}") from None
    shape = "non-square" if args.non_square else "square"
    rows = [{"array": str(p.array), "cells": p.cells, "cycles": p.cycles}
            for p in front]
    print(format_table(
        rows, title=f"{network.name} {shape} cells-vs-cycles frontier "
                    f"({args.scheme}, <= {args.max_cells} cells)"))
    print(f"{len(front)} non-dominated of the candidate grid; every "
          f"extra cell buys strictly fewer cycles along this frontier")
    return 0


def _cmd_chip(args: argparse.Namespace) -> int:
    if args.chip_command == "sweep":
        return _cmd_chip_sweep(args)
    if args.chip_command == "pareto":
        return _cmd_chip_pareto(args)
    from .chip import ChipConfig, plan_pipeline
    network = get_network(args.name)
    chip = ChipConfig(PIMArray.parse(args.array), args.arrays)
    plan = plan_pipeline(network, chip, args.scheme)
    print(format_table(plan.rows(),
                       title=f"{network.name} pipelined on {chip} "
                             f"({args.scheme})"))
    print(f"bottleneck: {plan.bottleneck_cycles} cycles/inference "
          f"(steady state), fill latency {plan.fill_latency_cycles} "
          f"cycles, {plan.arrays_used}/{chip.num_arrays} arrays used")
    return 0


def _cmd_chip_sweep(args: argparse.Namespace) -> int:
    network = get_network(args.name)
    array = PIMArray.parse(args.array)
    engine = _engine_for(args.backend)
    lattice = engine.chip_lattice(network, array, args.scheme)
    floor = lattice.floor_arrays
    if args.counts:
        counts = _parse_counts(args.counts)
    else:
        step = max(1, (7 * floor) // 32)
        counts = list(range(floor, 8 * floor + 1, step))
    deadline = None
    if args.deadline_ms is not None:
        from .runtime import Deadline
        from .core import ConfigurationError
        try:
            deadline = Deadline(args.deadline_ms / 1000.0)
        except ConfigurationError as error:
            raise SystemExit(f"--deadline-ms: {error}") from None
    sweep = engine.chip_sweep(network, array, counts, args.scheme,
                              deadline=deadline)
    print(format_table(
        sweep.rows(),
        title=f"{network.name} chip sweep on {array} crossbars "
              f"({args.scheme}; bottleneck/fill in cycles)"))
    print(f"residency floor: {floor} arrays; {len(counts)} budgets "
          f"replayed from one ChipLattice ({lattice.num_groups} "
          f"precomputed upgrade runs)")
    return 0


def _load_cost_params(path: Optional[str]):
    """``--cost-params FILE`` -> validated CostParams (or ``None``)."""
    from .core import ConfigurationError, CostParams
    if path is None:
        return None
    import json
    try:
        with open(path) as handle:
            payload = json.load(handle)
        return CostParams.from_dict(payload)
    except (OSError, json.JSONDecodeError, ConfigurationError) as error:
        raise SystemExit(f"--cost-params: {error}") from None


def _cmd_chip_pareto(args: argparse.Namespace) -> int:
    from .dse import InfeasibleTargetError, chip_pareto
    network = get_network(args.name)
    cost_params = _load_cost_params(args.cost_params)
    try:
        sides = ([int(s) for s in args.sides.split(",") if s.strip()]
                 if args.sides else None)
    except ValueError as error:
        raise SystemExit(f"chip pareto: {error}") from None
    from .core import ConfigurationError
    fidelity = None
    if args.fidelity is not None:
        from .pim.replay import FidelitySpec
        try:
            fidelity = FidelitySpec.of(args.fidelity)
        except ConfigurationError as error:
            raise SystemExit(f"chip pareto: {error}") from None
    try:
        front = chip_pareto(network, scheme=args.scheme, pools=args.pools,
                            cost_params=cost_params,
                            max_cells=args.max_cells, sides=sides,
                            max_arrays=args.max_arrays,
                            target_bottleneck=args.target_bottleneck,
                            fidelity=fidelity,
                            engine=_engine_for(args.backend))
    except (InfeasibleTargetError, ConfigurationError) as error:
        # ConfigurationError covers e.g. --sides entries that all
        # exceed --max-cells (an empty candidate pool).
        raise SystemExit(f"chip pareto: {error}") from None
    rows = [{"pool": p.pool, "arrays": p.num_arrays, "cells": p.cells,
             "energy (nJ)": round(p.energy_nj, 3),
             "bottleneck": p.bottleneck_cycles,
             "latency (us)": round(p.latency_us, 2)}
            for p in front]
    if fidelity is not None:
        for row, point in zip(rows, front):
            row["accuracy"] = round(point.accuracy_proxy, 4)
    mode = "heterogeneous pools" if args.pools else "homogeneous"
    print(format_table(
        rows, title=f"{network.name} chip cells/energy/latency frontier "
                    f"({args.scheme}, {mode})"))
    mixed = sum(1 for p in front if p.pool == "mixed")
    print(f"{len(front)} non-dominated deployments"
          + (f" ({mixed} from the mixed pool plan)" if args.pools else "")
          + "; energy is per-inference compute energy (Section II: "
            "conversions dominate)")
    if fidelity is not None:
        print(f"accuracy = functional PIM replay proxy under "
              f"{fidelity.describe()} (1.0 = bit-exact)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .core import ConfigurationError
    from .server import serve
    try:
        serve(args.host, args.port, workers=args.workers,
              store_path=args.store, backend=args.backend,
              cache_size=args.cache_size, memo_size=args.memo_size,
              fault_injection=args.fault_injection)
    except ConfigurationError as error:
        raise SystemExit(f"serve: {error}") from None
    except OSError as error:
        raise SystemExit(
            f"serve: cannot bind {args.host}:{args.port} ({error})"
        ) from None
    return 0


_COMMANDS = {
    "map": _cmd_map,
    "network": _cmd_network,
    "experiments": _cmd_experiments,
    "landscape": _cmd_landscape,
    "dse": _cmd_dse,
    "chip": _cmd_chip,
    "serve": _cmd_serve,
}

def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status.

    Library failures surface as *typed* one-line errors, never
    tracebacks: :class:`~repro.runtime.deadline.DeadlineExceededError`
    exits 3 with the best-so-far progress attached; any other
    :class:`~repro.core.types.ReproError` (configuration mistakes,
    infeasible targets, permanent store damage) exits 2 with the error
    class named.  There is deliberately no bare ``except Exception``
    here — anything else is a bug and should crash loudly (the REP008
    lint rule enforces the same discipline tree-wide).
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    from .core.types import ReproError
    from .runtime import DeadlineExceededError
    try:
        return _COMMANDS[args.command](args)
    except DeadlineExceededError as error:
        partial = error.partial if isinstance(error.partial, dict) else {}
        done, total = partial.get("completed"), partial.get("total")
        progress = (f" — {done}/{total} probes finished"
                    if done is not None else "")
        print(f"vwsdk: deadline exceeded: {error}{progress}",
              file=sys.stderr)
        return 3
    except ReproError as error:
        print(f"vwsdk: {type(error).__name__}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - module CLI
    sys.exit(main())
