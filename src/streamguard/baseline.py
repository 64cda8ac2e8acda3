"""Sliding-window evaluation protocol for plain VLM baselines.

Fixed-rate sampling, overlapping windows, per-window prompting, and
aggregation of window verdicts into a single prediction per case.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .backends import load_prompt
from .model import _EPS, FrameManifest, PredictionRecord
from .parsing import FormatError, parse_baseline_verdict, parse_severity_verdict

log = logging.getLogger(__name__)

# The paper's baseline protocol: 2 s windows of 10 fps frames, 1.5 s apart.
WINDOW_FPS = 10.0
WINDOW_LENGTH = 2.0
WINDOW_STRIDE = 1.5

_OFFSETS = tuple(i / WINDOW_FPS for i in range(math.ceil(WINDOW_LENGTH * WINDOW_FPS)))


@dataclass(frozen=True)
class Window:
    start: float
    end: float
    frame_times: tuple[float, ...]


@dataclass(frozen=True)
class WindowPlan:
    windows: tuple[Window, ...]


def build_windows(duration: float) -> WindowPlan:
    """Plan overlapping windows covering [0, duration].

    Windows of ``WINDOW_LENGTH`` start at 0 and advance by ``WINDOW_STRIDE``;
    the final window is clamped to the stream end rather than dropped, so
    late hazards stay monitored.  Each window carries the times ``start +
    i / WINDOW_FPS`` that fall before its clamped end.  A stream too short
    for any such time (a single frame) gets one window holding time 0.  The
    duration must be finite and non-negative: an infinite or NaN duration
    would plan windows without end.
    """
    if not (math.isfinite(duration) and duration >= 0):
        raise ValueError(f"duration must be finite and non-negative, got {duration!r}")

    windows = []
    start = 0.0
    while True:
        end = start + WINDOW_LENGTH
        clamped = min(end, duration)
        limit = clamped - _EPS
        times = tuple([t for o in _OFFSETS if (t := start + o) < limit]) or (start,)
        windows.append(Window(start=round(start, 9), end=round(clamped, 9), frame_times=times))
        if end >= duration - _EPS:
            break
        start = round(start + WINDOW_STRIDE, 9)
    return WindowPlan(windows=tuple(windows))


def run_baseline_case(manifest: FrameManifest, backend,
                      with_severity: bool = False) -> PredictionRecord:
    """Evaluate one case over the ``build_windows`` plan and aggregate.

    Each window is sent the ``severity`` prompt when ``with_severity`` is
    set, else ``baseline_detect``.  Aggregation takes the earliest hazardous
    timestamp across windows; a case is Safe only if every window said Safe.
    Per-window format errors are logged; the case itself is a format error
    only when every window failed to parse.  Each window's frames come from
    one ``manifest.frames_at`` walk over its frame times.
    """
    prompt = load_prompt("severity" if with_severity else "baseline_detect")
    plan = build_windows(manifest.duration)

    hazard_times: list[float] = []
    format_details: list[str] = []
    raws: list[str] = []
    n_parsed = 0
    for window in plan.windows:
        frames = manifest.frames_at(window.frame_times)
        text = prompt.render(frames, manifest.pre_overlaid, start=window.start, end=window.end)
        raw, _latency = backend.baseline_raw(window.start, window.end, frames, text)
        raws.append(raw)
        try:
            verdict = parse_baseline_verdict(raw, window.start, window.end)
        except FormatError as exc:
            log.warning("case %s window [%s, %s]: %s", manifest.case_id,
                        window.start, window.end, exc)
            format_details.append(f"[{window.start},{window.end}]:{exc.reason}")
            continue
        n_parsed += 1
        if verdict != "safe":
            hazard_times.append(float(verdict))

    severity_claim = None
    if with_severity and raws:
        try:
            severity_claim = parse_severity_verdict(raws[-1])
        except FormatError:
            severity_claim = None

    reasoning = "\n".join(raws)
    return PredictionRecord(case_id=manifest.case_id,
                            verdict="hazard" if hazard_times else "safe",
                            timestamp=min(hazard_times, default=None),
                            severity_claim=severity_claim if n_parsed else None,
                            reasoning_text=reasoning, raw_output=reasoning,
                            parse_status="ok" if n_parsed else "format_error",
                            parse_detail="; ".join(format_details))
