"""Sliding-window evaluation protocol for plain VLM baselines.

Fixed-rate sampling, overlapping windows, per-window prompting, and
aggregation of window verdicts into a single prediction per case.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

from .backends import PromptTemplate, load_prompt
from .model import _EPS, FrameManifest, PredictionRecord
from .parsing import FormatError, parse_baseline_verdict, parse_severity_verdict

log = logging.getLogger(__name__)

DEFAULT_FPS = 10.0
DEFAULT_WINDOW_LENGTH = 2.0
DEFAULT_STRIDE = 1.5


@dataclass(frozen=True)
class Window:
    start: float
    end: float
    frame_times: tuple[float, ...]


@dataclass(frozen=True)
class WindowPlan:
    windows: tuple[Window, ...]


def build_windows(duration: float, fps: float = DEFAULT_FPS,
                  length: float = DEFAULT_WINDOW_LENGTH,
                  stride: float = DEFAULT_STRIDE) -> WindowPlan:
    """Plan overlapping windows covering [0, duration].

    Windows start at 0 and advance by ``stride``; the final window is
    clamped to the stream end rather than dropped, so late hazards stay
    monitored.  Each window carries the times ``start + i / fps`` for
    ``i < ceil(length * fps)`` that fall before its clamped end; the
    offsets ``i / fps`` are computed once per call.  Every argument must be
    finite: an infinite or NaN duration would plan windows without end.
    Starts are rounded to 1e-9 s: a stride whose step that rounding swallows
    (every stride below 5e-10 s, and some just above it) raises ValueError
    instead of planning windows without end.
    """
    if not all(map(math.isfinite, (duration, fps, length, stride))):
        raise ValueError("duration, fps, length and stride must be finite")
    if duration <= 0 or length <= 0 or fps <= 0:
        raise ValueError("duration, length and fps must be positive")
    if not 0 < stride <= length:
        raise ValueError("stride must satisfy 0 < stride <= length")

    offsets = [i / fps for i in range(math.ceil(length * fps))]
    windows = []
    start = 0.0
    while True:
        end = start + length
        clamped = min(end, duration)
        limit = clamped - _EPS
        times = tuple([t for o in offsets if (t := start + o) < limit])
        windows.append(Window(start=round(start, 9), end=round(clamped, 9), frame_times=times))
        if end >= duration - _EPS:
            break
        next_start = round(start + stride, 9)
        if next_start == start:
            raise ValueError(f"stride {stride!r} does not advance the window start "
                             "at 1e-9 s resolution")
        start = next_start
    return WindowPlan(windows=tuple(windows))


def run_baseline_case(manifest: FrameManifest, backend,
                      prompt: Optional[PromptTemplate] = None,
                      with_severity: bool = False) -> PredictionRecord:
    """Evaluate one case over the default ``build_windows`` plan and aggregate.

    Aggregation takes the earliest hazardous timestamp across windows; a
    case is Safe only if every window said Safe.  Per-window format errors
    are logged; the case itself is a format error only when every window
    failed to parse.  Each window's frames come from one
    ``manifest.frames_at`` walk over its frame times.
    """
    prompt = prompt or load_prompt("baseline_detect")
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
