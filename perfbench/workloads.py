"""One timed pass per workload through streamguard's CLI and public API,
and the checks that decide whether each operation's output is correct.

An operation is one CLI subcommand call or one case-level API call.  It
fails when it raises, exits nonzero, or its output fails a check.  Checks
run after the pass, outside its timed region.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import statistics
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import streamguard.annotations as annotations
import streamguard.baseline as baseline
import streamguard.cli as cli
import streamguard.metrics as metrics
from streamguard.model import DecisionTrace, FrameManifest, PredictionRecord

from gen import FPS_SWEEP, PHASE_SCORES, Spec, latest_index
from hostspeed import HostClock

PHASES = tuple(PHASE_SCORES)
SWEEP_ARG = ",".join(str(int(f)) for f in FPS_SWEEP)


class LogCounter(logging.Handler):
    """While active, counts ``streamguard`` warnings by message template instead
    of letting them reach stderr."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts: Counter = Counter()
        self._logger = logging.getLogger("streamguard")

    def emit(self, record: logging.LogRecord) -> None:
        self.counts[str(record.msg)] += 1

    def __enter__(self):
        self._saved = (self._logger.handlers[:], self._logger.propagate)
        self._logger.handlers = [self]
        self._logger.propagate = False
        return self

    def __exit__(self, *exc):
        self._logger.handlers, self._logger.propagate = self._saved


def count_matching(counts: Counter, fragment: str) -> int:
    """Warnings whose message template contains ``fragment``."""
    return sum(n for msg, n in counts.items() if fragment in msg)


class CaseTimer:
    """Times each ``run_case`` call the ``run`` subcommand makes, probes left out."""

    def __init__(self, host: HostClock):
        self.host = host
        self.times: list = []
        self._orig = None

    def __enter__(self):
        self._orig = orig = cli.run_case
        host, times, clock = self.host, self.times, time.perf_counter

        def timed(*args, **kwargs):
            probed, t0 = host.probe_total, clock()
            try:
                return orig(*args, **kwargs)
            finally:
                times.append(clock() - t0 - (host.probe_total - probed))

        cli.run_case = timed
        return self

    def __exit__(self, *exc):
        cli.run_case = self._orig


@dataclass
class Tally:
    """Every attempted operation and the failed ones."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


@dataclass
class Op:
    """One timed operation of a pass: a CLI call or a case-level API step."""

    stage: str
    argv: list
    code: object  # 0 on success, else what went wrong
    seconds: float  # wall time
    scale: float  # to reference host speed, see hostspeed.py
    output: str = ""

    @property
    def normalized(self) -> float:
        return self.seconds * self.scale


@dataclass
class PassResult:
    """What one pass did: its operations, the outputs kept for checks, its counts."""

    outdir: str
    ops: list = field(default_factory=list)
    traces: list = field(default_factory=list)  # DecisionTrace of every case run
    convert_failures: list = field(default_factory=list)
    case_times: list = field(default_factory=list)  # run_case seconds, normalized
    samples: int = 0  # frames the run stage sampled
    logs: dict = field(default_factory=dict)  # stage -> Counter of warning templates
    severity: object = None

    @property
    def seconds(self) -> float:
        """The pass's wall time at reference host speed."""
        return sum(op.normalized for op in self.ops)

    @property
    def raw_seconds(self) -> float:
        return sum(op.seconds for op in self.ops)

    def stage_seconds(self, stage: str) -> float:
        return sum(op.normalized for op in self.ops if op.stage == stage)


class Pass:
    """Runs passes of one workload over generated inputs."""

    def __init__(self, spec: Spec, logs: LogCounter):
        self.spec = spec
        self.logs = logs
        self.clock = HostClock()
        self._result = None
        self._timer = None

    # -- running ---------------------------------------------------------------

    def _op(self, stage: str, argv: list, fn) -> None:
        """Time ``fn() -> (code, output)`` as one operation of the pass."""
        logs_before = Counter(self.logs.counts)
        first_case = len(self._timer.times)

        def guarded():
            try:
                return fn()
            except (Exception, SystemExit) as exc:  # any escape is a failed operation
                return f"{type(exc).__name__}: {exc}", ""

        (code, output), seconds, scale = self.clock.time(guarded)
        self._result.ops.append(Op(stage, argv, code, seconds, scale, output))
        self._result.case_times.extend(t * scale for t in self._timer.times[first_case:])
        self._result.logs.setdefault(stage, Counter()).update(
            self.logs.counts - logs_before)

    def _cli(self, stage: str, argv: list) -> None:
        def call():
            sink = io.StringIO()
            with redirect_stdout(sink), redirect_stderr(sink):
                code = cli.main(argv)
            return code, sink.getvalue()

        self._op(stage, argv, call)

    def run(self, outdir: str) -> PassResult:
        os.makedirs(outdir)
        self._result = PassResult(outdir=outdir)
        self.clock.reset()
        with CaseTimer(self.clock) as self._timer:
            getattr(self, f"_pass_{self.spec.workload}")()
        self._result.samples = sum(1 for t in self._result.traces for ev in t.events
                                   if ev.kind == "frame_sampled")
        return self._result

    def _out(self, name: str) -> str:
        return os.path.join(self._result.outdir, name)

    def _convert(self) -> tuple:
        """Collapse traces into the prediction records the scorer reads."""
        with open(self._out("dual.jsonl"), "w", encoding="utf-8") as out:
            for g in self.spec.groups:
                try:
                    with open(self._out(f"traces-{g.name}.jsonl"), encoding="utf-8") as fh:
                        for line in fh:
                            trace = DecisionTrace.from_dict(json.loads(line))
                            out.write(json.dumps(trace.to_prediction().to_dict()) + "\n")
                            self._result.traces.append(trace)
                except Exception as exc:  # counted as a failed case-level operation
                    self._result.convert_failures.append(f"{g.name}: {type(exc).__name__}: {exc}")
        with open(self._out("baseline.jsonl"), "w", encoding="utf-8") as out:
            for g in self.spec.groups:
                path = self._out(f"baseline-{g.name}.jsonl")
                if os.path.exists(path):
                    with open(path, encoding="utf-8") as fh:
                        out.write(fh.read())
        return 0, ""

    def _run_and_baseline(self) -> None:
        for g in self.spec.groups:
            self._cli("run", ["run", "--manifest", g.manifest, "--fast", f"scripted:{g.fast}",
                              "--slow", f"scripted:{g.slow}", "--jobs", "1",
                              "--out", self._out(f"traces-{g.name}.jsonl")])
        for g in self.spec.groups:
            self._cli("baseline", ["eval-baseline", "--manifest", g.manifest,
                                   "--backend", f"scripted:{g.baseline}",
                                   "--out", self._out(f"baseline-{g.name}.jsonl")])
        self._op("convert", ["trace-to-prediction"], self._convert)

    def _score(self, model: str, preds: str) -> None:
        anns = self.spec.annotations
        self._cli("score", ["metrics", "--preds", preds, "--annotations", anns,
                            "--model", model, "--out", self._out(f"metrics-{model}.csv")])
        self._cli("score", ["errors", "--preds", preds, "--annotations", anns,
                            "--out", self._out(f"errors-{model}.csv")])

    def _pass_corpus(self) -> None:
        self._run_and_baseline()
        self._score("dual", self._out("dual.jsonl"))
        self._score("baseline", self._out("baseline.jsonl"))
        for g in self.spec.groups:
            self._cli("ablate", ["ablate", "--manifest", g.manifest,
                                 "--annotations", g.annotations,
                                 "--fast", f"scripted:{g.fast}", "--slow", f"scripted:{g.slow}",
                                 "--fps", SWEEP_ARG, "--out", self._out(f"ablate-{g.name}.csv")])

    def _pass_long_stream(self) -> None:
        self._run_and_baseline()

    def _severity(self) -> tuple:
        anns = annotations.load_annotations(self.spec.annotations)
        with open(self.spec.predictions, encoding="utf-8") as fh:
            preds = [PredictionRecord.from_dict(json.loads(line)) for line in fh]
        self._result.severity = metrics.severity_confusion(preds, anns)
        return 0, ""

    def _pass_score_bulk(self) -> None:
        self._score("bulk", self.spec.predictions)
        self._cli("agreement", ["agreement", "--a", self.spec.annotations,
                                "--b", self.spec.annotations_b,
                                "--out", self._out("agreement.csv")])
        self._op("severity", ["severity_confusion"], self._severity)


# -- checks --------------------------------------------------------------------

def _close(a, b, tol: float = 1e-6) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(float(a) - float(b)) <= tol


def _read_csv(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_jsonl(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_frame_lookup(manifests: list, ops: Tally, samples: int = 64) -> None:
    """``latest_frame_at`` against a bisect reference on spread-out times."""
    for m in manifests:
        times = [f.t for f in m.frames]
        probes = [m.duration * i / samples for i in range(samples + 1)]
        probes += [times[len(times) // 2], times[-1] + 1.0, -1.0]
        ok = all(m.latest_frame_at(t) == m.frames[latest_index(times, t)] for t in probes)
        ops.record(ok, f"latest_frame_at disagrees with bisect on {m.case_id}")


def _check_metrics_row(path: str, n: int, hazards: int) -> str:
    """Empty when the metric identities hold on the written row, else why not."""
    row = _read_csv(path)[0]
    fractions = {p: float(row[f"p_{p}"]) for p in PHASES}
    if int(row["n_total"]) != n:
        return f"n_total {row['n_total']} != {n}"
    if abs(sum(fractions.values()) - 1.0) > 1e-9:
        return f"phase fractions sum to {sum(fractions.values())}"
    if abs(float(row["hdr"]) * n - hazards) > 1e-6:
        return f"hdr * n = {float(row['hdr']) * n} != hazard count {hazards}"
    wss = sum(fractions[p] * PHASE_SCORES[p] for p in PHASES)
    if abs(float(row["wss"]) - wss) > 1e-6:
        return f"wss {row['wss']} != {wss} recomputed"
    return ""


def _check_errors_csv(path: str, case_ids: set, format_errors) -> str:
    rows = _read_csv(path)
    if {r["case_id"] for r in rows} != case_ids or len(rows) != len(case_ids):
        return "error rows do not cover each case once"
    valid = {e.value for e in metrics.ErrorType}
    if any(r["error_type"] not in valid for r in rows):
        return "unknown error type"
    found = sum(1 for r in rows if r["error_type"] == "format_error")
    if format_errors is not None and found != format_errors:
        return f"{found} format errors, expected {format_errors}"
    return ""


def _check_ablate_csv(path: str, n: int, hazards_by_fps: dict) -> str:
    rows = _read_csv(path)
    if [float(r["fps"]) for r in rows] != list(FPS_SWEEP):
        return "sweep rows do not match the requested rates"
    for r in rows:
        fractions = {p: float(r[f"p_{p}"]) for p in PHASES}
        if abs(sum(fractions.values()) - 1.0) > 5.1e-4:
            return f"fps {r['fps']}: phase fractions sum to {sum(fractions.values())}"
        if abs(float(r["hdr"]) - hazards_by_fps[str(float(r["fps"]))] / n) > 5.1e-5:
            return f"fps {r['fps']}: hdr {r['hdr']} != reference"
        wss = sum(fractions[p] * PHASE_SCORES[p] for p in PHASES)
        if abs(float(r["wss"]) - wss) > 0.03:
            return f"fps {r['fps']}: wss {r['wss']} != {wss} recomputed"
    return ""


def _call_ok(call: Op, check=None) -> tuple:
    if call.code != 0:
        return False, f"{' '.join(call.argv[:1])} exited {call.code}: {call.output[-200:]}"
    try:
        why = check() if check else ""
    except Exception as exc:  # an unreadable output is a failed check
        why = f"{type(exc).__name__}: {exc}"
    return not why, why


def _check_run_and_baseline(spec: Spec, result: PassResult, ops: Tally, pending) -> None:
    """Per-case decisions and trace round trips, then the run, baseline and convert calls."""
    ref = spec.reference
    decided = set()
    for trace in result.traces:
        want = ref["run"][trace.case_id]
        pred = trace.to_prediction()
        got = [trace.alert_stream_time,
               None if trace.alert_source is None else trace.alert_source.value,
               trace.aborted, pred.verdict, pred.timestamp]
        ok = (DecisionTrace.from_dict(trace.to_dict()) == trace
              and _close(got[0], want[0]) and got[1:4] == want[1:4] and _close(got[4], want[4]))
        if ops.record(ok, f"case {trace.case_id}: got {got}, want {want}"):
            decided.add(trace.case_id)
    for failure in result.convert_failures:
        ops.record(False, failure)
    for g in spec.groups:
        ok, why = _call_ok(next(pending), lambda: "" if decided.issuperset(g.case_ids)
                           else "a trace is missing or wrong")
        ops.record(ok, f"run {g.name}: {why}")
    for g in spec.groups:

        def baseline_ok():
            records = _read_jsonl(os.path.join(result.outdir, f"baseline-{g.name}.jsonl"))
            if [r["case_id"] for r in records] != g.case_ids:
                return "baseline records do not match the manifest"
            for r in records:
                want = ref["baseline"][r["case_id"]]
                if r["verdict"] != want[0] or not _close(r["timestamp"], want[1]):
                    return f"{r['case_id']}: {r['verdict']} {r['timestamp']}, want {want}"
            return ""

        ok, why = _call_ok(next(pending), baseline_ok)
        ops.record(ok, f"eval-baseline {g.name}: {why}")
    ok, why = _call_ok(next(pending))
    ops.record(ok, f"trace-to-prediction: {why}")


def _check_corpus_scores(spec: Spec, result: PassResult, ops: Tally, pending) -> None:
    ref, ids = spec.reference, set(spec.case_ids)
    for model, hazards, format_errors in (
            ("dual", sum(1 for v in ref["run"].values() if v[3] == "hazard"), None),
            ("baseline", sum(1 for v in ref["baseline"].values() if v[0] == "hazard"),
             ref["baseline_format_errors"])):
        ok, why = _call_ok(next(pending), lambda: _check_metrics_row(
            os.path.join(result.outdir, f"metrics-{model}.csv"), len(ids), hazards))
        ops.record(ok, f"metrics {model}: {why}")
        ok, why = _call_ok(next(pending), lambda: _check_errors_csv(
            os.path.join(result.outdir, f"errors-{model}.csv"), ids, format_errors))
        ops.record(ok, f"errors {model}: {why}")
    for g in spec.groups:
        ok, why = _call_ok(next(pending), lambda: _check_ablate_csv(
            os.path.join(result.outdir, f"ablate-{g.name}.csv"), len(g.case_ids),
            ref["sweep"][g.name]))
        ops.record(ok, f"ablate {g.name}: {why}")


def _check_score_bulk(spec: Spec, result: PassResult, ops: Tally, pending) -> None:
    ref = spec.reference
    ok, why = _call_ok(next(pending), lambda: _check_metrics_row(
        os.path.join(result.outdir, "metrics-bulk.csv"), ref["n"], ref["hazards"]))
    ops.record(ok, f"metrics: {why}")
    ids = {f"b{i:05d}" for i in range(ref["n"])}
    ok, why = _call_ok(next(pending), lambda: _check_errors_csv(
        os.path.join(result.outdir, "errors-bulk.csv"), ids, ref["format_errors"]))
    ops.record(ok, f"errors: {why}")

    agreement = next(pending)

    def agreement_ok():
        rows = {r["field"]: r for r in _read_csv(os.path.join(result.outdir, "agreement.csv"))}
        if set(rows) != set(ref["mae"]):
            return "agreement rows do not cover the key frames"
        for fld, mae in ref["mae"].items():
            if abs(float(rows[fld]["mae_s"]) - mae) > 2e-6:
                return f"{fld}: mae {rows[fld]['mae_s']} != {mae}"
            if not all(-1.0 - 1e-9 <= float(rows[fld][k]) <= 1.0 + 1e-9
                       for k in ("ccc", "icc_a1")):
                return f"{fld}: ccc/icc outside [-1, 1]"
        if f"n_both_valid={ref['n_both_valid']}" not in agreement.output:
            return "n_both_valid differs from the reference"
        return ""

    ok, why = _call_ok(agreement, agreement_ok)
    ops.record(ok, f"agreement: {why}")

    def severity_ok():
        s = result.severity
        if s.n != ref["severity_claims"] or sum(s.counts.values()) != s.n:
            return f"severity confusion covers {s.n} claims, expected {ref['severity_claims']}"
        if abs(s.over_rate + s.under_rate + s.exact_rate - 1.0) > 1e-9:
            return "severity rates do not sum to 1"
        return ""

    ok, why = _call_ok(next(pending), severity_ok)
    ops.record(ok, f"severity_confusion: {why}")


def check_pass(spec: Spec, result: PassResult, ops: Tally) -> None:
    """Check every operation of one pass, in the order the pass ran them."""
    pending = iter(result.ops)
    if spec.workload in ("corpus", "long_stream"):
        _check_run_and_baseline(spec, result, ops, pending)
    if spec.workload == "corpus":
        _check_corpus_scores(spec, result, ops, pending)
    if spec.workload == "score_bulk":
        _check_score_bulk(spec, result, ops, pending)



# -- figures -------------------------------------------------------------------

def window_counts(spec: Spec) -> tuple:
    """(windows, frames fetched) the baseline protocol plans for the workload."""
    windows = frames = 0
    for g in spec.groups:
        with open(g.manifest, encoding="utf-8") as fh:
            for m in json.load(fh):
                plan = baseline.build_windows(m["frames"][-1]["t"])
                windows += len(plan.windows)
                frames += sum(len(w.frame_times) for w in plan.windows)
    return windows, frames


def load_manifests(spec: Spec) -> list:
    out = []
    for g in spec.groups:
        with open(g.manifest, encoding="utf-8") as fh:
            out.extend(FrameManifest.from_dict(m) for m in json.load(fh))
    return out


def stage_figures(spec: Spec, result: PassResult, windows: int) -> dict:
    """The per-stage end-to-end figures of one pass (0 where a stage is absent)."""
    n_cases = len(spec.case_ids)
    run_s, base_s = result.stage_seconds("run"), result.stage_seconds("baseline")
    samples = result.samples
    times = sorted(result.case_times)
    enough = len(times) >= 20  # p95 needs at least one case beyond it
    return {
        "run_cases_per_s": n_cases / run_s if run_s else 0.0,
        "run_samples_per_s": samples / run_s if run_s else 0.0,
        "run_case_p50_ms": 1e3 * statistics.median(times) if enough else 0.0,
        "run_case_p95_ms": 1e3 * statistics.quantiles(times, n=20)[-1] if enough else 0.0,
        "baseline_cases_per_s": n_cases / base_s if base_s else 0.0,
        "baseline_windows_per_s": windows / base_s if base_s else 0.0,
        "score_s": result.stage_seconds("score"),
        "agreement_s": result.stage_seconds("agreement"),
        "ablate_s": result.stage_seconds("ablate"),
    }


def counters(result: PassResult, windows: int, frames: int) -> dict:
    """Deterministic work counters of one pass, from its outputs and its logs."""
    kinds = Counter(ev.kind for t in result.traces for ev in t.events)
    run_logs = result.logs.get("run", Counter())
    base_logs = result.logs.get("baseline", Counter())
    dispatched = kinds["slow_dispatched"]
    has_baseline = "baseline" in result.logs
    return {
        "coordinator.samples": kinds["frame_sampled"],
        "coordinator.slow_dispatched": dispatched,
        "coordinator.slow_verdicts": kinds["slow_verdict"],
        "coordinator.overrides": kinds["override"],
        "coordinator.aborted": sum(1 for t in result.traces if t.aborted),
        "coordinator.slow_wasted_frac": kinds["override"] / dispatched if dispatched else 0.0,
        "coordinator.fast_fallbacks": count_matching(run_logs, "fast output"),
        "coordinator.slow_fallbacks": count_matching(run_logs, "slow output"),
        "baseline.windows": windows if has_baseline else 0,
        "baseline.frames_fetched": frames if has_baseline else 0,
        "baseline.window_format_errors": count_matching(base_logs, "window"),
    }
