"""Span tracing of streamguard's layers, from outside the program.

Each traced function is replaced, where its caller looks it up, by a
wrapper that records one span: name, start, end and the span that was
open when it was called.  Spans stay in memory as parallel lists and are
written out once, at the end of the run.  A function's self time is its
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import streamguard.ablation as ablation
import streamguard.agreement as agreement
import streamguard.annotations as annotations
import streamguard.backends as backends
import streamguard.baseline as baseline
import streamguard.cli as cli
import streamguard.coordinator as coordinator
import streamguard.metrics as metrics
import streamguard.model as model

# Metric prefix -> the (namespace, attribute) pairs through which callers
# reach the function.  Methods are patched on their class.
TRACED = {
    "model.latest_frame_at": [(model.FrameManifest, "latest_frame_at")],
    "model.trace_to_dict": [(model.DecisionTrace, "to_dict")],
    "model.trace_from_dict": [(model.DecisionTrace, "from_dict")],
    "model.to_prediction": [(model.DecisionTrace, "to_prediction")],
    "parsing.parse_fast_output": [(backends, "parse_fast_output")],
    "parsing.parse_slow_output": [(coordinator, "parse_slow_output"),
                                  (backends, "parse_slow_output")],
    "parsing.parse_baseline_verdict": [(baseline, "parse_baseline_verdict")],
    "parsing.parse_severity_verdict": [(baseline, "parse_severity_verdict")],
    "backends.load_prompt": [(coordinator, "load_prompt"), (baseline, "load_prompt"),
                             (cli, "load_prompt")],
    "backends.fast_raw": [(backends.ScriptedBackend, "fast_raw")],
    "backends.slow_raw": [(backends.ScriptedBackend, "slow_raw")],
    "backends.baseline_raw": [(backends.ScriptedBackend, "baseline_raw")],
    "backends.render": [(backends.PromptTemplate, "render")],
    "coordinator.run_case": [(cli, "run_case"), (ablation, "run_case")],
    "baseline.build_windows": [(baseline, "build_windows")],
    "baseline.run_baseline_case": [(cli, "run_baseline_case")],
    "metrics.build_report": [(cli, "build_report"), (ablation, "build_report")],
    "metrics.phase_counts": [(metrics, "phase_counts")],
    "metrics.error_rates": [(metrics, "error_rates"), (cli, "error_rates")],
    "metrics.classify_error": [(metrics, "classify_error"), (cli, "classify_error")],
    "metrics.severity_confusion": [(metrics, "severity_confusion")],
    "annotations.load_annotations": [(cli, "load_annotations"),
                                     (annotations, "load_annotations")],
    "annotations.classify_phase": [(metrics, "classify_phase")],
    "agreement.agreement_table": [(cli, "agreement_table")],
    "agreement.cohens_kappa": [(agreement, "cohens_kappa")],
    "agreement.icc_a1": [(agreement, "icc_a1")],
    "ablation.sweep_fps": [(ablation, "sweep_fps")],
    "cli.run": [(cli, "cmd_run")],
    "cli.eval_baseline": [(cli, "cmd_eval_baseline")],
    "cli.metrics": [(cli, "cmd_metrics")],
    "cli.errors": [(cli, "cmd_errors")],
    "cli.agreement": [(cli, "cmd_agreement")],
    "cli.ablate": [(cli, "cmd_ablate")],
}


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket a pass."""

    def __init__(self):
        self.names = list(TRACED)
        self._saved: list = []
        self.reset()

    def reset(self) -> None:
        self.span_name: list = []
        self.span_parent: list = []
        self.span_start: list = []
        self.span_end: list = []
        self._stack = [-1]

    def _wrap(self, name_id: int, fn):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        self.reset()
        for name_id, (name, sites) in enumerate(TRACED.items()):
            for owner, attr in sites:
                raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if raw is None:
                    continue  # the program no longer has this call site
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name_id, raw.__func__))
                else:
                    patched = self._wrap(name_id, raw)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def summary(self) -> dict:
        """``<name>.calls`` and ``<name>.self_s`` for every traced name."""
        calls = Counter(self.span_name)
        child = [0.0] * len(self.span_name)
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += durations[idx]
        self_s = [0.0] * len(self.names)
        for idx, name_id in enumerate(self.span_name):
            self_s[name_id] += durations[idx] - child[idx]
        out = {}
        for name_id, name in enumerate(self.names):
            out[f"{name}.calls"] = calls.get(name_id, 0)
            out[f"{name}.self_s"] = self_s[name_id]
        return out

    def dump(self, path: str) -> None:
        """Write the spans of the last traced pass as tab-separated rows."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for idx, (name_id, parent, start, end) in enumerate(
                    zip(self.span_name, self.span_parent, self.span_start, self.span_end)):
                fh.write(f"{idx}\t{parent}\t{self.names[name_id]}\t{start:.9f}\t{end:.9f}\n")
