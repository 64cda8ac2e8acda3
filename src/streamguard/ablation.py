"""Batch experiments: sampling-rate sweeps and latency-safety frontiers."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .annotations import AnnotationSet
from .coordinator import CoordinatorConfig, run_case
from .metrics import EmptyDataset, MetricsReport, build_report
from .model import FrameManifest, Phase, PhaseScoreTable


@dataclass(frozen=True)
class CasePair:
    """One runnable case: its frame stream and its backend pair."""

    manifest: FrameManifest
    fast: object
    slow: object


def _run_suite(cases: Sequence[CasePair], anns: AnnotationSet,
               cfg: CoordinatorConfig,
               scores: Optional[PhaseScoreTable] = None) -> tuple[MetricsReport, Optional[float]]:
    preds = []
    latencies = []
    for case in cases:
        trace = run_case(case.manifest, case.fast, case.slow, cfg)
        preds.append(trace.to_prediction())
        if trace.end_to_end_latency is not None:
            latencies.append(trace.end_to_end_latency)
    mean_latency = sum(latencies) / len(latencies) if latencies else None
    return build_report(preds, anns, scores=scores), mean_latency


def sweep_fps(cases: Sequence[CasePair], anns: AnnotationSet,
              fps_list: Sequence[float], cfg: CoordinatorConfig,
              scores: Optional[PhaseScoreTable] = None) -> list:
    """Re-run the suite once per high-rate setting; one result row per rate.

    Only the post-trigger rate varies; the idle rate stays at its
    configured value.
    """
    if not fps_list:
        raise ValueError("fps_list must be non-empty")
    # Every rate is validated by its config before any suite runs.
    configs = [replace(cfg, gamma_high=float(fps)) for fps in fps_list]
    if not cases:
        raise EmptyDataset("no cases to sweep")

    rows = []
    for run_cfg in configs:
        report, mean_latency = _run_suite(cases, anns, run_cfg, scores)
        rows.append({
            "fps": run_cfg.gamma_high,
            "hdr": report.hdr,
            "ewp": report.ewp,
            "wss": report.wss,
            "phase_fractions": dict(report.phase_fractions),
            "mean_latency": mean_latency,
        })
    return rows


def frontier(cases: Sequence[CasePair], anns: AnnotationSet,
             configurations: Sequence[dict],
             scores: Optional[PhaseScoreTable] = None) -> list:
    """Latency/score pairs per configuration, for external Pareto plotting.

    Each configuration is {"name": str, "cfg": CoordinatorConfig} and may
    override the backend pair via "fast"/"slow".  A row is flagged
    dominated when another row is at least as good on both axes and
    strictly better on one.
    """
    if not configurations:
        raise ValueError("at least one configuration required")
    if not cases:
        raise EmptyDataset("no cases to evaluate")

    rows = []
    for conf in configurations:
        run_cases = [
            CasePair(manifest=c.manifest,
                     fast=conf.get("fast", c.fast),
                     slow=conf.get("slow", c.slow))
            for c in cases
        ]
        report, mean_latency = _run_suite(run_cases, anns, conf["cfg"], scores)
        rows.append({"name": conf["name"], "mean_latency": mean_latency,
                     "wss": report.wss, "hdr": report.hdr, "dominated": False})

    def better(a, b):
        """a dominates b on (latency down, wss up)."""
        la = float("inf") if a["mean_latency"] is None else a["mean_latency"]
        lb = float("inf") if b["mean_latency"] is None else b["mean_latency"]
        return (la <= lb and a["wss"] >= b["wss"]
                and (la < lb or a["wss"] > b["wss"]))

    for row in rows:
        row["dominated"] = any(better(other, row) for other in rows if other is not row)
    return rows
