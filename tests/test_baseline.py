"""Sliding-window planner and baseline evaluation protocol."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from streamguard.backends import BackendTimeoutError, ScheduleRule, ScriptedBackend, load_prompt
from streamguard.baseline import (
    WINDOW_FPS,
    WINDOW_LENGTH,
    WINDOW_STRIDE,
    Window,
    WindowPlan,
    build_windows,
    run_baseline_case,
)

from helpers import grid_manifest

_EPS = 1e-9


def baseline_backend(rules):
    """rules: (window_start, raw_text) pairs keyed on the window start."""
    return ScriptedBackend(baseline_responses=[
        ScheduleRule(s - 0.01, s + 0.01, {"raw": raw}) for s, raw in rules
    ])


# --- window planner ----------------------------------------------------------

def test_windows_duration_5():
    plan = build_windows(5.0)
    spans = [(w.start, w.end) for w in plan.windows]
    assert spans == [(0.0, 2.0), (1.5, 3.5), (3.0, 5.0)]
    assert all(len(w.frame_times) == 20 for w in plan.windows)
    assert plan.windows[0].frame_times[:3] == (0.0, 0.1, 0.2)


def test_windows_clamped_tail():
    plan = build_windows(4.0)
    spans = [(w.start, w.end) for w in plan.windows]
    assert spans == [(0.0, 2.0), (1.5, 3.5), (3.0, 4.0)]
    # the clamped final window only carries frames inside the stream
    assert len(plan.windows[-1].frame_times) == 10


def test_windows_short_stream():
    plan = build_windows(1.0)
    assert [(w.start, w.end) for w in plan.windows] == [(0.0, 1.0)]
    assert len(plan.windows[0].frame_times) == 10


def test_windows_bad_args():
    # A negative duration is no stream, and a non-finite one would plan
    # windows without end.
    for bad in (-1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            build_windows(bad)
    # A one-frame stream has duration 0: one window holding its frame.
    assert build_windows(0.0) == WindowPlan(windows=(Window(0.0, 0.0, (0.0,)),))


def test_windows_random_durations_properties():
    rng = random.Random(3)
    for _ in range(200):
        duration = round(rng.uniform(0.5, 30.0), 2)
        plan = build_windows(duration)
        windows = plan.windows
        assert windows[0].start == 0.0
        # stride, length and overlap relations
        for w in windows[:-1]:
            assert w.end - w.start == pytest.approx(2.0)
        for a, b in zip(windows, windows[1:]):
            assert b.start - a.start == pytest.approx(1.5)
            assert a.end - b.start == pytest.approx(0.5)  # consecutive overlap
        # full coverage of [0, duration]
        assert windows[-1].end == pytest.approx(min(duration,
                                                    windows[-1].start + 2.0))
        t = 0.0
        while t < duration:
            assert any(w.start - _EPS <= t <= w.end + _EPS for w in windows)
            t += 0.05
        # frame times stay inside their window at the fixed sampling rate
        for w in windows:
            for i, ft in enumerate(w.frame_times):
                assert ft == pytest.approx(w.start + i * 0.1)
                assert ft < w.end


def _reference_windows(duration):
    """The planner as it was before its frame offsets were computed once."""
    n_frames = math.ceil(WINDOW_LENGTH * WINDOW_FPS)
    windows = []
    start = 0.0
    while True:
        end = start + WINDOW_LENGTH
        clamped = min(end, duration)
        times = tuple(start + i / WINDOW_FPS for i in range(n_frames)
                      if start + i / WINDOW_FPS < clamped - _EPS)
        windows.append(Window(start=round(start, 9), end=round(clamped, 9), frame_times=times))
        if end >= duration - _EPS:
            break
        start = round(start + WINDOW_STRIDE, 9)
    return WindowPlan(windows=tuple(windows))


@settings(max_examples=200, deadline=None)
@given(duration=st.floats(0.001, 30.0))
@example(duration=600.0)  # a long stream
def test_windows_match_reference_planner(duration):
    assert build_windows(duration) == _reference_windows(duration)


# --- per-case evaluation -----------------------------------------------------

def test_baseline_all_safe():
    manifest = grid_manifest(duration=5.0)
    pred = run_baseline_case(manifest, baseline_backend([]))
    assert pred.verdict == "safe"
    assert pred.parse_status == "ok"


def test_baseline_earliest_hazard_wins():
    manifest = grid_manifest(duration=5.0)
    backend = baseline_backend([
        (1.5, "Part 1: risky\nPart 2: 2.8"),
        (3.0, "Part 1: risky\nPart 2: 3.4"),
    ])
    pred = run_baseline_case(manifest, backend)
    assert pred.verdict == "hazard"
    assert pred.timestamp == pytest.approx(2.8)


def test_baseline_single_window_format_error_is_logged_not_fatal():
    manifest = grid_manifest(duration=5.0)
    backend = baseline_backend([
        (0.0, "Part 2: garbage"),
        (3.0, "Part 1: risky\nPart 2: 4.2"),
    ])
    pred = run_baseline_case(manifest, backend)
    assert pred.verdict == "hazard"
    assert pred.timestamp == pytest.approx(4.2)
    assert pred.parse_status == "ok"
    assert "not_a_number" in pred.parse_detail


def test_baseline_all_windows_unparseable():
    manifest = grid_manifest(duration=5.0)
    backend = baseline_backend([(s, "word salad") for s in (0.0, 1.5, 3.0)])
    pred = run_baseline_case(manifest, backend)
    assert pred.parse_status == "format_error"
    assert pred.verdict == "safe"
    assert not pred.is_hazard


def test_baseline_out_of_window_timestamp_rejected():
    manifest = grid_manifest(duration=5.0)
    backend = baseline_backend([(0.0, "Part 1: risk\nPart 2: 4.9")])  # outside [0, 2]
    pred = run_baseline_case(manifest, backend)
    assert pred.verdict == "safe"  # that window is discarded as a format error
    assert "out_of_range" in pred.parse_detail


def test_baseline_with_severity():
    manifest = grid_manifest(duration=2.0)
    backend = baseline_backend(
        [(0.0, "Part 1: risky\nPart 2: 1.2\nPart 3: L3")])
    pred = run_baseline_case(manifest, backend, with_severity=True)
    assert pred.severity_claim == "L3"
    pred = run_baseline_case(manifest, backend, with_severity=False)
    assert pred.severity_claim is None


def test_baseline_severity_from_the_hazard_window():
    """The claim comes from the window that gave the case its timestamp, not
    from the last window."""
    manifest = grid_manifest(duration=5.0)  # windows start at 0.0, 1.5 and 3.0
    backend = baseline_backend([(0.0, "Part 1: risky\nPart 2: 1.2\nPart 3: L3"),
                                (3.0, "Part 1: calm\nPart 2: Safe\nPart 3: None")])
    pred = run_baseline_case(manifest, backend, with_severity=True)
    assert (pred.verdict, pred.timestamp, pred.severity_claim) == ("hazard", 1.2, "L3")
    # The earliest hazard wins, and the first window among equal ones.
    backend = baseline_backend([(0.0, "Part 2: 1.8\nPart 3: L2"),
                                (1.5, "Part 2: 1.8\nPart 3: L4"),
                                (3.0, "Part 2: 3.1\nPart 3: L1")])
    pred = run_baseline_case(manifest, backend, with_severity=True)
    assert (pred.timestamp, pred.severity_claim) == (1.8, "L2")
    backend = baseline_backend([(0.0, "Part 2: 1.9\nPart 3: L1"),
                                (1.5, "Part 2: 1.6\nPart 3: L4")])
    pred = run_baseline_case(manifest, backend, with_severity=True)
    assert (pred.timestamp, pred.severity_claim) == (1.6, "L4")


def test_baseline_severity_of_a_safe_case_from_the_last_parsed_window():
    manifest = grid_manifest(duration=5.0)
    backend = baseline_backend([(0.0, "Part 2: Safe\nPart 3: L1"),
                                (1.5, "Part 2: Safe\nPart 3: None"),
                                (3.0, "word salad\nPart 3: L4")])
    pred = run_baseline_case(manifest, backend, with_severity=True)
    assert (pred.verdict, pred.parse_status, pred.severity_claim) == ("safe", "ok", "none")
    backend = baseline_backend([(s, "word salad\nPart 3: L4") for s in (0.0, 1.5, 3.0)])
    pred = run_baseline_case(manifest, backend, with_severity=True)
    assert (pred.parse_status, pred.severity_claim) == ("format_error", None)


def test_severity_prompt_asks_for_what_the_parser_reads():
    """The severity prompt names the window, and a reply that follows it
    parses to a hazard with its claim."""
    manifest = grid_manifest(duration=2.0)
    text = load_prompt("severity").render((), True, start=0.0, end=2.0)
    assert "0.0s to 2.0s" in text and "[0.0, 2.0]" in text
    backend = baseline_backend([(0.0, "Part 1: the pan tips\nPart 2: 1.2\nPart 3: L2")])
    pred = run_baseline_case(manifest, backend, with_severity=True)
    assert (pred.verdict, pred.timestamp, pred.severity_claim) == ("hazard", 1.2, "L2")


def test_baseline_backend_failure_propagates():
    manifest = grid_manifest(duration=2.0)
    backend = ScriptedBackend(timeout=[(0.0, 99.0)])

    class TimingOut(ScriptedBackend):
        def baseline_raw(self, *a, **kw):
            raise BackendTimeoutError("scripted")

    with pytest.raises(BackendTimeoutError):
        run_baseline_case(manifest, TimingOut())


def test_baseline_prompt_window_rendered():
    """Each window is sent the severity prompt with ``with_severity``, else
    the detect prompt with its window times filled in."""
    manifest = grid_manifest(duration=2.0)
    seen = []

    class Spy(ScriptedBackend):
        def baseline_raw(self, window_start, window_end, frames, prompt_text):
            seen.append((prompt_text, frames))
            return "Part 2: Safe", 0.5

    texts = {}
    for with_severity, template in ((False, "baseline_detect"), (True, "severity")):
        seen.clear()
        run_baseline_case(manifest, Spy(), with_severity=with_severity)
        [(text, frames)] = seen
        assert text == load_prompt(template).render(frames, manifest.pre_overlaid,
                                                    start=0.0, end=2.0)
        assert "<Start>" not in text and "<End>" not in text
        texts[template] = text
    assert "0.0s to 2.0s" in texts["baseline_detect"]
