"""Harness-speed benchmark for streamguard.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

For one seeded workload (corpus, long_stream or score_bulk) it generates
inputs, sets up several times (import + input generation + one warm-up
pass, reporting the median), then runs closed-loop passes through
``streamguard.cli.main([...])`` in this one process for ``--seconds``
seconds and checks every output.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` spends half the time untraced and half with every
layer's public functions wrapped, and prints the per-layer metrics.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

It measures how fast the harness computes its results, not the paper's
simulated end-to-end latency, and it always uses the simulated clock:
``--clock real`` sleeps in stream time and would measure ``time.sleep``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from hostspeed import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "long_stream", "score_bulk")
SETUPS = 3  # set-ups per --trace 0 run; setup_s is their median

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
# Per-stage figures, with the workloads each applies to.
STAGES = {
    "run_cases_per_s": ("1/s", ("corpus", "long_stream")),
    "run_samples_per_s": ("1/s", ("corpus", "long_stream")),
    "run_case_p50_ms": ("ms", ("corpus",)),
    "run_case_p95_ms": ("ms", ("corpus",)),
    "baseline_cases_per_s": ("1/s", ("corpus", "long_stream")),
    "baseline_windows_per_s": ("1/s", ("corpus", "long_stream")),
    "score_s": ("s", ("corpus", "score_bulk")),
    "agreement_s": ("s", ("score_bulk",)),
    "ablate_s": ("s", ("corpus",)),
}
COUNTERS = {
    "coordinator.samples": "count", "coordinator.slow_dispatched": "count",
    "coordinator.slow_verdicts": "count", "coordinator.overrides": "count",
    "coordinator.aborted": "count", "coordinator.slow_wasted_frac": "ratio",
    "coordinator.fast_fallbacks": "count", "coordinator.slow_fallbacks": "count",
    "baseline.windows": "count", "baseline.frames_fetched": "count",
    "baseline.window_format_errors": "count",
}
TRACING = {"coordinator.self_us_per_sample": "us", "tracing.pass_s": "s",
           "tracing.overhead_s": "s", "failed_frac": "ratio"}


def per_layer_units() -> dict:
    """Every per-layer metric name the traced run prints, with its unit."""
    from tracer import TRACED

    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units.update({name: unit for name, (unit, _) in STAGES.items()})
    units.update(TRACING)
    return units


def import_program() -> float:
    """Import streamguard from this checkout's ``src``; returns the seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))

    def load():
        import streamguard.ablation  # noqa: F401
        import streamguard.cli  # noqa: F401  (with ablation, every layer)
        return sys.modules["streamguard.cli"]

    cli, seconds, scale = HostClock().time(load)
    if Path(cli.__file__).resolve().parents[1] != src:
        raise ImportError(f"streamguard imported from {cli.__file__}, not {src}")
    return seconds * scale


def measure(args, work: Path, import_s: float) -> tuple:
    """Set up, run the timed passes and check them; returns (figures, operations)."""
    from gen import GENERATORS
    from tracer import Tracer
    from workloads import (LogCounter, Pass, Tally, check_frame_lookup, check_pass, counters,
                           load_manifests, stage_figures, window_counts)

    ops = Tally()
    with LogCounter() as logs:
        setups, raw_setups = [], []
        for i in range(1 if args.trace else SETUPS):
            d = work / f"setup{i}"
            d.mkdir(parents=True)
            spec, seconds, scale = HostClock().time(
                lambda: GENERATORS[args.workload](str(d), args.seed, args.size))
            runner = Pass(spec, logs)
            warm = runner.run(str(d / "warmup"))
            setups.append(seconds * scale + warm.seconds)
            raw_setups.append(seconds + warm.raw_seconds)
            check_pass(spec, warm, ops)
            shutil.rmtree(d / "warmup")
        check_frame_lookup(load_manifests(spec), ops)
        windows, frames = window_counts(spec)
        numbers = itertools.count()

        def passes(budget: float, tracer=None) -> tuple:
            """Timed passes for ``budget`` seconds: per-pass figures and, if traced, spans."""
            rows, traced, t_end = [], [], time.perf_counter() + budget
            while True:
                if tracer:
                    tracer.install()
                try:
                    result = runner.run(str(work / f"pass{next(numbers)}"))
                finally:
                    if tracer:
                        tracer.uninstall()
                check_pass(spec, result, ops)
                shutil.rmtree(result.outdir)
                rows.append({"pass_s": result.seconds, "raw_pass_s": result.raw_seconds,
                             **stage_figures(spec, result, windows)})
                if tracer:  # self times at reference speed too, by the pass's mean scale
                    scale = result.seconds / result.raw_seconds
                    spans = {k: v * scale if k.endswith(".self_s") else v
                             for k, v in tracer.summary().items()}
                    traced.append({**spans, **counters(result, windows, frames)})
                if time.perf_counter() >= t_end:
                    return median_of(rows), traced

        if not args.trace:
            plain, _ = passes(args.seconds)
            figures = {"setup_s": import_s + statistics.median(setups),
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                       "raw_setup_s": statistics.median(raw_setups), **plain}
        else:
            plain, _ = passes(args.seconds / 2)
            tracer = Tracer()
            traced_plain, traced = passes(args.seconds / 2, tracer)
            (work.parent / "spans").mkdir(exist_ok=True)
            tracer.dump(str(work.parent / "spans" / f"{args.workload}-seed{args.seed}.tsv"))
            figures = {k: statistics.median(row[k] for row in traced) for k in traced[0]}
            figures.update({k: plain[k] for k in STAGES})
            samples = figures["backends.fast_raw.calls"]
            figures["coordinator.self_us_per_sample"] = (
                1e6 * figures["coordinator.run_case.self_s"] / samples if samples else 0.0)
            figures["tracing.pass_s"] = traced_plain["pass_s"]
            figures["tracing.overhead_s"] = traced_plain["pass_s"] - plain["pass_s"]
    figures["failed_frac"] = ops.failed / ops.attempted
    return figures, ops


def median_of(rows: list) -> dict:
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the smoke test only")
    return p.parse_args(argv)


def main(argv=None) -> dict:
    """Run one benchmark measurement; returns the result line it printed."""
    args = parse_args(argv)
    if not (ROOT / "src" / "streamguard" / "__init__.py").is_file():
        raise SystemExit(f"error: no streamguard sources under {ROOT / 'src'}")
    import_s = import_program()
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        figures, ops = measure(args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = per_layer_units() if args.trace else {**END_TO_END, **{
        k: u for k, (u, where) in STAGES.items() if args.workload in where}}
    units["failed_frac"] = "ratio"
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={ops.attempted} failed={ops.failed}")
    if not args.trace:
        units.update({"raw_setup_s": "s", "raw_pass_s": "s"})
    for name, unit in units.items():
        print(f"{name:44s} {figures[name]:>16.6f} {unit}")
    for err in ops.errors:
        print(f"FAILED: {err}", file=sys.stderr)

    reported = per_layer_units() if args.trace else END_TO_END
    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": {k: {"value": figures[k], "unit": u} for k, u in reported.items()}}
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
