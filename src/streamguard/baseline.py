"""Sliding-window evaluation protocol for plain VLM baselines.

Fixed-rate sampling, overlapping windows, per-window prompting, and
aggregation of window verdicts into a single prediction per case.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .backends import call_backend, load_prompt
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


def _window(start: float, duration: float) -> Window:
    """The window from ``start``, clamped to ``duration``: its times ``start +
    i / WINDOW_FPS`` that fall before the clamped end, or ``start`` alone."""
    clamped = min(start + WINDOW_LENGTH, duration)
    limit = clamped - _EPS
    times = tuple([t for o in _OFFSETS if (t := start + o) < limit]) or (start,)
    return Window(start=round(start, 9), end=round(clamped, 9), frame_times=times)


def _unrounded_end(window: Window) -> float:
    return window.start + WINDOW_LENGTH


# The protocol's full windows, shared by every plan; see ``build_windows``.
_grid: tuple[Window, ...] = ()


def build_windows(duration: float) -> WindowPlan:
    """Plan overlapping windows covering [0, duration].

    Windows of ``WINDOW_LENGTH`` start at 0 and advance by ``WINDOW_STRIDE``;
    the final window is clamped to the stream end rather than dropped, so
    late hazards stay monitored.  Each window carries the times ``start +
    i / WINDOW_FPS`` that fall before its clamped end.  A stream too short
    for any such time (a single frame) gets one window holding time 0.  The
    duration must be finite and non-negative: an infinite or NaN duration
    would plan windows without end.

    Every window but the last is the same for every stream, so a plan is a
    prefix of one module-level grid of full windows plus its final window,
    built clamped to ``duration``.  Window k of the grid starts at
    ``round(start_{k-1} + WINDOW_STRIDE, 9)``.  The grid is extended until a
    window's unrounded end, ``start + WINDOW_LENGTH``, reaches ``duration -
    _EPS``; one ``bisect_left`` on that end finds the plan's final window.
    So the grid holds the full windows of the longest plan built in the
    process: about 330 KiB for a 600 s stream, which that plan held anyway.
    No lock: the grid is rebound in one assignment, and two racing
    extensions build equal windows.  perfbench long_stream ``pass_s`` reads
    0.0596 against 0.0626 s with a plan built whole per case, and corpus
    0.490 against 0.506 s (medians of 10 pairs; traced
    ``baseline.build_windows.self_s`` 0.07 against 3.35 ms and 3.0 against
    18.3 ms).
    """
    global _grid
    if not (math.isfinite(duration) and duration >= 0):
        raise ValueError(f"duration must be finite and non-negative, got {duration!r}")

    target = duration - _EPS
    grid = _grid
    if not grid or _unrounded_end(grid[-1]) < target:
        windows = list(grid) or [_window(0.0, math.inf)]
        start = windows[-1].start
        while start + WINDOW_LENGTH < target:
            start = round(start + WINDOW_STRIDE, 9)
            windows.append(_window(start, math.inf))
        grid = _grid = tuple(windows)
    k = bisect_left(grid, target, key=_unrounded_end)
    return WindowPlan(windows=grid[:k] + (_window(grid[k].start, duration),))


def run_baseline_case(manifest: FrameManifest, backend,
                      with_severity: bool = False) -> PredictionRecord:
    """Evaluate one case over the ``build_windows`` plan and aggregate.

    Each window is sent the ``severity`` prompt when ``with_severity`` is
    set, else ``baseline_detect``.  Aggregation takes the earliest hazardous
    timestamp across windows; a case is Safe only if every window said Safe.
    The severity claim is read from the window whose verdict is the case's:
    the first window with the earliest hazard, or for a Safe case the last
    window that parsed.  Per-window format errors are logged; the case
    itself is a format error only when every window failed to parse.  Each
    window's frames are ``manifest.frames_at`` of its frame times, a lazy
    ``Sequence[Frame]``: the prompt and the backend build only the frames
    they read, and a scripted backend with a pre-overlaid prompt builds none.

    Each window's backend call goes through ``call_backend``.  The first
    that fails ends the case: its record is Safe with ``parse_status``
    ``"aborted"`` and ``parse_detail`` ``[start,end]:<abort reason>``.
    """
    prompt = load_prompt("severity" if with_severity else "baseline_detect")
    plan = build_windows(manifest.duration)

    hazard_t: Optional[float] = None
    verdict_raw: Optional[str] = None  # the reply of the window that gave the verdict
    format_details: list[str] = []
    raws: list[str] = []
    for window in plan.windows:
        frames = manifest.frames_at(window.frame_times)
        text = prompt.render(frames, manifest.pre_overlaid, start=window.start, end=window.end)
        reply = call_backend(backend.baseline_raw, window.start, window.end, frames, text)
        if type(reply) is str:
            return PredictionRecord(case_id=manifest.case_id, verdict="safe",
                                    parse_status="aborted",
                                    parse_detail=f"[{window.start},{window.end}]:{reply}")
        raw = reply[0]
        raws.append(raw)
        try:
            verdict = parse_baseline_verdict(raw, window.start, window.end)
        except FormatError as exc:
            log.warning("case %s window [%s, %s]: %s", manifest.case_id,
                        window.start, window.end, exc)
            format_details.append(f"[{window.start},{window.end}]:{exc.reason}")
            continue
        if verdict != "safe":
            if hazard_t is None or verdict < hazard_t:
                hazard_t, verdict_raw = verdict, raw
        elif hazard_t is None:
            verdict_raw = raw

    severity_claim = None
    if with_severity and verdict_raw is not None:
        try:
            severity_claim = parse_severity_verdict(verdict_raw)
        except FormatError:
            severity_claim = None

    reasoning = "\n".join(raws)
    return PredictionRecord(case_id=manifest.case_id,
                            verdict="safe" if hazard_t is None else "hazard",
                            timestamp=hazard_t, severity_claim=severity_claim,
                            reasoning_text=reasoning, raw_output=reasoning,
                            parse_status="format_error" if verdict_raw is None else "ok",
                            parse_detail="; ".join(format_details))
