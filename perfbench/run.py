"""Host-time benchmark of the VW-SDK stack: ``serve``, ``dse``, ``fidelity``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, both modes

Every workload is a closed loop over a seeded op stream (the program
only ever sees the generated inputs).  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` replays the first ops of the same
stream with spans around each layer's public functions and prints the
per-layer metrics.  Simulated statistics are deterministic, so they are
checked for equality, never timed.  Seed 1 is the default; seed 2 is
held out for checking a claimed gain.

End-to-end timings are reported at a reference host speed.  On a
shared virtual machine, other tenants slow the host by up to 2x for
seconds to minutes at a time, which no run length averages out, so a
fixed probe (``common.probe_ns``) runs between ops every 20 ms of loop
time and each op's wall time is scaled by the reference probe time over
the mean probe time within 0.25 s of the op.  Set-up time is scaled by
a burst of probes taken right after set-up.  The unscaled figures are
printed beside the metrics.

Metric names and units come from ``BENCHMARK.json``.  Per-layer
``*_ms`` metrics are self time per op of the traced run; counts and
shares are per op too and repeat exactly for one seed.  A workload
reports 0 for the layers its ops never enter.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any check fails.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402 - the set-up clock starts before imports
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

# One CPU and one BLAS thread for everything a run starts (the server,
# its pool worker and the set-up processes inherit both).  A closed loop
# keeps one process busy at a time, so nothing waits for the CPU; the
# client probes the speed of the CPU the server runs on; and no wake-up
# crosses CPUs, which on a shared virtual machine costs a varying delay.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

ROOT = Path(__file__).resolve().parent.parent

#: Spans reported as ``<name>_self_ms``: their callees are timed as
#: spans of their own, so a bare ``<name>_ms`` would read as the whole call.
SELF_SPANS = {"dse.chip_pareto", "dse.array_pareto", "pim.engine",
              "pim.replay"}

#: Largest share of a traced op's wall time no layer may account for.
RESIDUAL_LIMIT_PCT = 10.0

SETUP_REPEATS = 3
SETUP_PROBES = 50

WORKLOADS = ("serve", "dse", "fidelity")


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or 'all' to run every workload "
                             "untraced and traced, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, tear down and print the set-up time")
    return parser.parse_args(argv)


@dataclass
class Pass:
    """One closed-loop pass over an op stream."""

    ops: List[Any] = field(default_factory=list)
    #: Per op: when it was sent, its wall time, and its share of the
    #: window (the wall time plus drawing the op from the stream).
    starts: List[int] = field(default_factory=list)
    walls: List[int] = field(default_factory=list)
    loops: List[int] = field(default_factory=list)
    #: ``(perf_counter_ns, probe_ns)`` host-speed probes between ops.
    probes: List[Tuple[int, int]] = field(default_factory=list)
    #: Raw answers, kept only for workloads checked after the run.
    answers: List[Any] = field(default_factory=list)
    #: Canonical answers of the first ``keep`` ops (trace comparison).
    canons: List[Any] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    window_s: float = 0.0

    def scaled(self) -> Tuple[List[float], float]:
        """Op wall times in ms and the window in s, at the reference
        host speed."""
        from common import host_factors
        factors = host_factors(self.starts, self.probes)
        return ([wall * factor / 1e6
                 for wall, factor in zip(self.walls, factors)],
                sum(loop * factor
                    for loop, factor in zip(self.loops, factors)) / 1e9)


def timed(workload: Any, stream: Any, count: Optional[int],
          seconds: Optional[float], tracer: Any = None, keep: int = 0,
          into: Optional[Pass] = None) -> Pass:
    """Closed loop: run ops until *count* are done or *seconds* of loop
    time pass.  In-process workloads check each answer as it arrives;
    that check is outside both the op's timing and the window, and the
    answer is dropped, so memory does not grow with the op count.  A
    host-speed probe runs between ops every ``PROBE_EVERY_NS`` of loop
    time, and once at each end; probes are outside the window too."""
    from common import PROBE_EVERY_NS, probe_ns
    from repro.core.types import ReproError
    done = into if into is not None else Pass()
    elapsed = 0
    limit = seconds * 1e9 if seconds is not None else None
    since_probe = PROBE_EVERY_NS
    while (count is None or len(done.ops) < count) and \
            (limit is None or elapsed < limit):
        if since_probe >= PROBE_EVERY_NS:
            done.probes.append((time.perf_counter_ns(), probe_ns()))
            since_probe = 0
        start = time.perf_counter_ns()
        op = next(stream)
        if tracer is not None:
            tracer.op = len(done.ops)
        begin = time.perf_counter_ns()
        try:
            answer = tracer.call("bench.op", workload.execute, op) \
                if tracer is not None else workload.execute(op)
        except (ReproError, OSError) as exc:
            answer = exc
        end = time.perf_counter_ns()
        elapsed += end - start
        since_probe += end - start
        index = len(done.ops)
        done.ops.append(op)
        done.starts.append(begin)
        done.walls.append(end - begin)
        done.loops.append(end - start)
        if index < keep:
            done.canons.append(None if isinstance(answer, Exception)
                               else workload.canon(op, answer))
        if workload.inline_checks:
            why = workload.verdict(op, answer)
            if why:
                done.failures.append(f"op {index}: {why}")
        else:
            done.answers.append(answer)
    done.probes.append((time.perf_counter_ns(), probe_ns()))
    done.window_s += elapsed / 1e9
    return done


def scaled_setup_s() -> float:
    """Seconds since the process started, at the reference host speed
    measured by a burst of probes right after set-up."""
    from common import REFERENCE_PROBE_NS, probe_ns
    elapsed = time.perf_counter() - START
    probes = [probe_ns() for _ in range(SETUP_PROBES)]
    return elapsed * REFERENCE_PROBE_NS * len(probes) / sum(probes)


def setup_times(args: argparse.Namespace) -> List[float]:
    """Set-up time of fresh processes (imports included)."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            raise RuntimeError(f"set-up run failed: {done.stderr[-2000:]}")
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def declared(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def layer_metrics(workload: Any, tracer: Any, replay: Any, traced: Pass,
                  units: Dict[str, str]) -> Dict[str, float]:
    n = len(traced.ops)
    metrics: Dict[str, float] = dict.fromkeys(units, 0.0)
    for source in (tracer, replay):
        for name, ns in source.self_ns().items():
            if name != "bench.op":
                key = f"{name}_self_ms" if name in SELF_SPANS \
                    else f"{name}_ms"
                metrics[key] = metrics.get(key, 0.0) + ns / n / 1e6
    metrics.update(workload.trace_metrics(tracer, traced.ops, traced.answers,
                                          replay))
    wall_ms = sum(end - start for name, start, end, *_ in tracer.spans
                  if name == "bench.op") / n / 1e6
    attributed = sum(value for key, value in metrics.items()
                     if units[key] == "ms"
                     and key.split(".")[0] not in ("trace", "host"))
    metrics["trace.residual_ms"] = wall_ms - attributed
    metrics["trace.residual_pct"] = 100.0 * (wall_ms - attributed) / wall_ms
    unknown = set(metrics) - set(units)
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return metrics


def latency_metrics(workload: Any, ops: List[Any], walls_ms: List[float],
                    window_s: float) -> Dict[str, float]:
    """p90 over every op, throughput, and each op class's median."""
    from common import p90
    return {
        "p90_ms": p90(walls_ms)[0],
        "throughput_ops": len(ops) / window_s,
        "fast_p50_ms": statistics.median(
            wall for op, wall in zip(ops, walls_ms) if workload.fast(op)),
        "slow_p50_ms": statistics.median(
            wall for op, wall in zip(ops, walls_ms) if not workload.fast(op)),
    }


def run(workload: Any, args: argparse.Namespace) -> Dict[str, Any]:
    from common import OUT, REFERENCE_PROBE_NS, Mismatch, p90
    from spans import Patches, Tracer

    model = workload.setup()
    setup_s = scaled_setup_s()
    stream = workload.ops(args.seed)
    keep = workload.trace_ops if args.trace else 0
    main = timed(workload, stream, None, args.seconds, keep=keep)
    measured = len(main.ops)
    rss_mb = workload.peak_rss_mb()
    problems: List[str] = []

    def stop() -> None:
        try:
            workload.teardown()
        except Mismatch as exc:
            problems.append(f"teardown: {exc}")

    if args.trace:
        timed(workload, stream, keep, None, keep=keep, into=main)
        # Reference and traced passes both start from a fresh set-up in
        # a warm process, so their difference is the tracing overhead.
        stop()
        workload.setup()
        reference = timed(workload, workload.ops(args.seed), keep, None)
        stop()
        workload.setup()
        tracer = Tracer()
        workload.trace_begin()
        with Patches(tracer) as patches:
            workload.instrument(patches)
            traced = timed(workload, workload.ops(args.seed), keep, None,
                           tracer, keep)
        workload.trace_end()
        problems += traced.failures
        problems += [f"traced op {index} answered differently"
                     for index, (a, b) in enumerate(zip(traced.canons,
                                                        main.canons))
                     if a is None or a != b]
    stop()

    replay = Tracer()
    checks_start = time.perf_counter()
    if not workload.inline_checks:
        main.failures += workload.check_all(main.ops, main.answers,
                                            replay if args.trace else None)
    problems += main.failures
    print(f"workload={args.workload} seed={args.seed} ops={measured} "
          f"window_s={main.window_s:.3f} "
          f"checks_s={time.perf_counter() - checks_start:.3f}")
    probe_ms = statistics.median(ns for _, ns in main.probes) / 1e6
    print(f"host probe {probe_ms:.3f} ms (median of {len(main.probes)}, "
          f"reference {REFERENCE_PROBE_NS / 1e6:.3f} ms); Table I error "
          f"{model['model.table1_error_cycles']:.0f} cycles "
          f"(ResNet-18 @ 512x512: 4294 VW-SDK cycles, 1.69x vs SDK)")

    if args.trace:
        units = declared("per_layer")
        values = layer_metrics(workload, tracer, replay, traced, units)
        values["trace.overhead_pct"] = 100.0 * (
            sum(traced.scaled()[0]) / sum(reference.scaled()[0]) - 1.0)
        values["host.probe_ms"] = probe_ms
        values.update(model)
        if values["trace.residual_pct"] > RESIDUAL_LIMIT_PCT:
            problems.append(f"layers leave {values['trace.residual_pct']:.1f}"
                            f"% of traced wall time unattributed "
                            f"(limit {RESIDUAL_LIMIT_PCT}%)")
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"ops": tracer.records(), "replay": replay.records()}))
        attempted = len(main.ops) + len(traced.ops)
    else:
        units = declared("end_to_end")
        setups = [setup_s] + setup_times(args)
        print(f"set-ups_s={[round(s, 4) for s in setups]}")
        values = {"setup_s": statistics.median(setups),
                  "peak_rss_mb": rss_mb}
        # The metrics are at the reference host speed; the unscaled
        # figures are printed beside them.
        unscaled = latency_metrics(workload, main.ops,
                                   [wall / 1e6 for wall in main.walls],
                                   main.window_s)
        print("unscaled: " + ", ".join(f"{name} {value:.4f}"
                                       for name, value in unscaled.items()))
        values.update(latency_metrics(workload, main.ops, *main.scaled()))
        beyond = p90(main.walls)[1]
        if beyond < 10:
            problems.append(f"p90 has {beyond} samples beyond it, not ten")
        attempted = len(main.ops)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"  {name:28s} {entry['value']:>16.6f} {entry['unit']}")
    for line in problems[:20]:
        print(f"FAIL {line}")
    return {"correct": not problems, "attempted": attempted,
            "failed": len(problems), "metrics": metrics}


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced; non-zero if any run fails."""
    failed = []
    for name in WORKLOADS:
        for trace in ("0", "1"):
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", trace], cwd=ROOT, timeout=600)
            if done.returncode != 0:
                failed.append(f"{name} --trace {trace}")
    print(f"all: {2 * len(WORKLOADS) - len(failed)} of "
          f"{2 * len(WORKLOADS)} runs passed"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run it from the "
              f"root of a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    from dse import Dse
    from fidelity import Fidelity
    from serve import Serve
    workload = {"serve": Serve, "dse": Dse, "fidelity": Fidelity}[
        args.workload]()
    if args.setup_only:
        try:
            workload.setup()
            setup_s = scaled_setup_s()
        finally:
            workload.teardown()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        result = run(workload, args)
    finally:
        workload.teardown()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
