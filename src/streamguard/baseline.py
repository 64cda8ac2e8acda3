"""Sliding-window evaluation protocol for plain VLM baselines.

Fixed-rate sampling, overlapping windows, per-window prompting, and
aggregation of window verdicts into a single prediction per case.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .backends import PromptTemplate, load_prompt
from .model import _EPS, Frame, FrameManifest, PredictionRecord, format_stream_time
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
    monitored.  Each window carries ceil(length * fps) frame times.
    """
    if duration <= 0 or length <= 0 or fps <= 0:
        raise ValueError("duration, length and fps must be positive")
    if not 0 < stride <= length:
        raise ValueError("stride must satisfy 0 < stride <= length")

    n_frames = math.ceil(length * fps)
    windows = []
    start = 0.0
    while True:
        end = start + length
        clamped = min(end, duration)
        times = tuple(start + i / fps for i in range(n_frames) if start + i / fps < clamped - _EPS)
        windows.append(Window(start=round(start, 9), end=round(clamped, 9), frame_times=times))
        if end >= duration - _EPS:
            break
        start = round(start + stride, 9)
    return WindowPlan(windows=tuple(windows))


def run_baseline_case(manifest: FrameManifest, backend,
                      prompt: Optional[PromptTemplate] = None,
                      fps: float = DEFAULT_FPS,
                      length: float = DEFAULT_WINDOW_LENGTH,
                      stride: float = DEFAULT_STRIDE,
                      early_exit: bool = False,
                      with_severity: bool = False) -> PredictionRecord:
    """Evaluate one case window by window and aggregate to a single record.

    Aggregation takes the earliest hazardous timestamp across windows; a
    case is Safe only if every window said Safe.  Per-window format errors
    are logged; the case itself is a format error only when every window
    failed to parse.
    """
    prompt = prompt or load_prompt("baseline_detect")
    plan = build_windows(manifest.duration, fps=fps, length=length, stride=stride)

    hazard_times: list[float] = []
    format_details: list[str] = []
    raws: list[str] = []
    n_parsed = 0
    for window in plan.windows:
        frames = [manifest.latest_frame_at(t) for t in window.frame_times]
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
            if early_exit:
                break

    severity_claim = None
    if with_severity and raws:
        try:
            severity_claim = parse_severity_verdict(raws[-1])
        except FormatError:
            severity_claim = None

    reasoning = "\n".join(raws)
    if n_parsed == 0:
        return PredictionRecord(case_id=manifest.case_id, verdict="safe",
                                reasoning_text=reasoning, raw_output=reasoning,
                                parse_status="format_error",
                                parse_detail="; ".join(format_details))
    if hazard_times:
        return PredictionRecord(case_id=manifest.case_id, verdict="hazard",
                                timestamp=min(hazard_times),
                                severity_claim=severity_claim,
                                reasoning_text=reasoning, raw_output=reasoning,
                                parse_detail="; ".join(format_details))
    return PredictionRecord(case_id=manifest.case_id, verdict="safe",
                            severity_claim=severity_claim,
                            reasoning_text=reasoning, raw_output=reasoning,
                            parse_detail="; ".join(format_details))


def emit_overlay_labels(frames: Sequence[Frame], out_path: str) -> int:
    """Write per-frame timestamp label records for an external burner tool.

    One JSON line per frame: image path, display text at 0.1 s resolution,
    anchor and colors.  Returns the number of records written.
    """
    times = [f.t for f in frames]
    if any(a > b for a, b in zip(times, times[1:])):
        raise ValueError("frames must be time-ordered")
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            for frame in frames:
                record = {
                    "image_path": frame.image_path,
                    "text": format_stream_time(frame.t),
                    "anchor": "top-left",
                    "fg": "red",
                    "bg": "white",
                }
                fh.write(json.dumps(record) + "\n")
    except OSError as exc:
        raise IOError(f"cannot write {out_path}: {exc}") from exc
    return len(frames)
