"""Sliding-window planner and baseline evaluation protocol."""

import math
import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from streamguard import baseline, model
from streamguard.backends import BackendTimeoutError, ScriptedBackend, load_prompt
from streamguard.baseline import (
    WINDOW_FPS,
    WINDOW_LENGTH,
    WINDOW_STRIDE,
    Window,
    WindowPlan,
    build_windows,
    run_baseline_case,
)
from streamguard.model import FrameManifest

from helpers import grid_manifest, reference_render

_EPS = 1e-9


def baseline_backend(rules):
    """rules: (window_start, raw_text) pairs keyed on the window start."""
    return ScriptedBackend({"baseline_responses": [
        {"t_start": s - 0.01, "t_end": s + 0.01, "raw": raw} for s, raw in rules
    ]})


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


def _expected(duration):
    """The reference plan with the one-frame rule it predates: a stream too
    short for any window time gets one window holding time 0."""
    plan = _reference_windows(duration)
    if plan.windows[-1].frame_times:
        return plan
    return WindowPlan(windows=(Window(0.0, round(duration, 9), (0.0,)),))


def _duration_at_edge(end, ulps):
    """The duration ``d`` whose ``d - _EPS`` lies ``ulps`` ulps above ``end``:
    a window ending at ``end`` is the last one of its plan when ``ulps <= 0``."""
    target = end
    for _ in range(abs(ulps)):
        target = math.nextafter(target, math.copysign(math.inf, ulps))
    d = end + _EPS
    for _ in range(64):
        if d - _EPS == target:
            return d
        d = math.nextafter(d, math.inf if d - _EPS < target else -math.inf)
    raise ValueError(f"no duration lands {ulps} ulps from {end}")


# Window 2 ends at 5.0, and window 19 at 30.5 (its start is summed and
# rounded 19 times).
_EDGES = [_duration_at_edge(end, ulps) for end in (5.0, 30.5) for ulps in (0, -1, 1)]


@pytest.fixture()
def empty_grid(monkeypatch):
    monkeypatch.setattr(baseline, "_grid", ())


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(duration=st.floats(0.0, 40.0))
@example(duration=_EDGES[0])
@example(duration=_EDGES[1])
@example(duration=_EDGES[2])
@example(duration=_EDGES[3])
@example(duration=_EDGES[4])
@example(duration=_EDGES[5])
@example(duration=0.0)
def test_grid_plan_matches_reference_at_end_edges(monkeypatch, duration):
    """A plan built from an empty grid, and from one grown past it, is the
    reference plan, also where a window's end lies on ``duration - _EPS``."""
    monkeypatch.setattr(baseline, "_grid", ())
    assert build_windows(duration) == _expected(duration)
    build_windows(60.0)
    assert build_windows(duration) == _expected(duration)


def test_duration_at_edge_lands_where_asked():
    d, under, over = _EDGES[:3]
    assert (d - _EPS, under - _EPS, over - _EPS) == (
        5.0, math.nextafter(5.0, 0.0), math.nextafter(5.0, math.inf))
    # On the edge and under it, the window ending at 5.0 is the last; over it,
    # one more window starts at 4.5.
    assert [len(build_windows(x).windows) for x in (d, under, over)] == [3, 3, 4]


@pytest.mark.parametrize("order", ["longest_first", "longest_last"])
def test_grid_plans_do_not_depend_on_order(empty_grid, order):
    """The grid grows to the longest plan built and no further; every plan,
    before or after that, is the reference plan."""
    durations = [600.0, 599.99, 123.4, 30.0, 10.25, 5.0, 2.0, 1.0, 0.0]
    if order == "longest_last":
        durations.reverse()
    for duration in durations:
        assert build_windows(duration) == _expected(duration), duration
    assert len(baseline._grid) == len(_reference_windows(600.0).windows) == 400


def test_plans_share_their_leading_windows(empty_grid):
    """Every window but a plan's last is the grid's own object, whichever plan
    built it."""
    short, long, again = build_windows(10.0), build_windows(600.0), build_windows(10.0)
    assert len(short.windows) == 7
    for a, b, c in zip(short.windows[:-1], long.windows, again.windows):
        assert a is b is c
    assert short.windows[-1] == again.windows[-1] and short.windows[-1] is not again.windows[-1]


def _race(durations):
    """Four threads, each planning every duration from its own offset at once,
    from an empty grid; their ``(duration, plan)`` lists and the grid left."""
    baseline._grid = ()
    start = threading.Barrier(4)
    results = [[] for _ in range(4)]

    def plan(i):
        start.wait(timeout=10)
        results[i].extend((d, build_windows(d)) for d in durations[i:] + durations[:i])

    threads = [threading.Thread(target=plan, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    return results, baseline._grid


def test_racing_threads_plan_the_reference(empty_grid):
    """Four threads extending the same empty grid at once each get the
    reference plans, and the grid they leave is a prefix of the full windows
    of the longest plan."""
    durations = [600.0, 3.3, 75.0, 0.0, 300.5, 9.99, 1.5, 450.0]
    expected = {d: _expected(d) for d in durations}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the extension loop
    try:
        rounds = [_race(durations) for _ in range(5)]
    finally:
        sys.setswitchinterval(switch)
    for results, grid in rounds:
        for got in results:
            assert len(got) == len(durations)
            assert all(plan == expected[d] for d, plan in got)
        # A racing shorter extension may have been stored last.
        assert 0 < len(grid) <= 400 and grid == _reference_windows(700.0).windows[:len(grid)]


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


@pytest.fixture()
def lookups(monkeypatch):
    """The times ``FrameManifest.latest_frame_at`` is called with, in order."""
    seen = []
    lookup = FrameManifest.latest_frame_at

    def spy(self, t):
        seen.append(t)
        return lookup(self, t)

    monkeypatch.setattr(FrameManifest, "latest_frame_at", spy)
    return seen


@pytest.mark.parametrize("with_severity", [False, True])
def test_baseline_builds_no_frame_nothing_reads(lookups, monkeypatch, with_severity):
    """A scripted backend ignores its frames and a pre-overlaid prompt lists
    none, so no window frame is ever looked up or built."""
    built = []
    frame = model.Frame

    def counting(*args):
        built.append(args)
        return frame(*args)

    monkeypatch.setattr(model, "Frame", counting)
    manifest = grid_manifest(duration=9.0)
    assert manifest.pre_overlaid
    pred = run_baseline_case(manifest, baseline_backend([(3.0, "Part 2: 3.4")]),
                             with_severity=with_severity)
    assert (pred.verdict, pred.timestamp) == ("hazard", 3.4)
    assert lookups == [] and built == []


@pytest.mark.parametrize("with_severity", [False, True])
def test_baseline_prompt_lists_each_clean_frame(lookups, with_severity):
    """For clean frames the prompt lists every frame of its window: each is
    looked up once, and the text is the reference render over the frames
    looked up eagerly."""
    manifest = grid_manifest(duration=9.0, step=0.07)
    manifest = FrameManifest(manifest.case_id, manifest.fps_native, manifest.frames,
                             pre_overlaid=False)
    template = load_prompt("severity" if with_severity else "baseline_detect")
    sent = []

    class Spy(ScriptedBackend):
        def baseline_raw(self, window_start, window_end, frames, prompt_text):
            sent.append(prompt_text)
            return "Part 2: Safe", 0.5

    run_baseline_case(manifest, Spy(), with_severity=with_severity)
    windows = build_windows(manifest.duration).windows
    planned = [t for w in windows for t in w.frame_times]
    assert lookups == planned
    assert sent == [
        reference_render(template.name, template.text,
                         [manifest.latest_frame_at(t) for t in w.frame_times], False,
                         start=w.start, end=w.end)
        for w in windows]
