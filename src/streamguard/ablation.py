"""Batch experiments: sampling-rate sweeps over a suite of cases."""

from __future__ import annotations

from typing import Sequence

from .coordinator import CoordinatorConfig, run_case
from .metrics import EmptyDataset, build_report
from .model import FrameManifest


def sweep_fps(manifests: Sequence[FrameManifest], fast, slow, anns: dict,
              fps_list: Sequence[float]) -> list:
    """Re-run the suite once per high-rate setting; one result row per rate.

    Every case runs against the same ``fast``/``slow`` backend pair, on the
    simulated clock: a sweep replays each stream once per rate, which the
    wall clock would sleep through.  Only the post-trigger rate varies; the
    idle rate stays at ``coordinator.GAMMA_LOW``.  An empty list or a rate
    the coordinator cannot sample raises ``ValueError`` before any case runs.
    """
    if not fps_list:
        raise ValueError("fps_list must be non-empty")
    # Every rate is validated by its config before any suite runs.
    configs = [CoordinatorConfig(gamma_high=float(fps)) for fps in fps_list]
    if not manifests:
        raise EmptyDataset("no cases to sweep")

    rows = []
    for run_cfg in configs:
        preds = []
        latencies = []
        for manifest in manifests:
            trace = run_case(manifest, fast, slow, run_cfg)
            preds.append(trace.to_prediction())
            if trace.end_to_end_latency is not None:
                latencies.append(trace.end_to_end_latency)
        report = build_report(preds, anns)
        rows.append({
            "fps": run_cfg.gamma_high,
            "hdr": report.hdr,
            "ewp": report.ewp,
            "wss": report.wss,
            "phase_fractions": dict(report.phase_fractions),
            "mean_latency": sum(latencies) / len(latencies) if latencies else None,
        })
    return rows
