"""Dual-brain protocol: golden timelines, override dominance, sampling
rates, single-flight dispatch, determinism, and failure handling."""

import json
import math
import random

import pytest

from streamguard.backends import BackendError, ScheduleRule, ScriptedBackend
from streamguard.coordinator import (
    CoordinatorConfig,
    NoAlert,
    run_case,
    summarize_latency,
)
from streamguard.model import (
    Alert,
    AlertSource,
    BinaryDecision,
    FastState,
    FrameSampled,
    Override,
    Phase,
    RateChange,
    SafetyState,
    SlowDispatched,
    SlowVerdict,
)
from streamguard.annotations import classify_phase

from helpers import fast_script, grid_manifest, make_ann, slow_script

CFG = CoordinatorConfig()

_US = 1_000_000


def merged(fast_rules, slow_rules=()):
    backend = fast_script(fast_rules)
    return backend, slow_script(slow_rules)


def sample_times(trace):
    return [round(ev.t * _US) for ev in trace.events_of(FrameSampled)]


# --- configuration -----------------------------------------------------------

def test_config_rejects_bad_rates():
    # inf and 1e7 round to a 0 us interval, which would never advance the clock
    for kw in ({"gamma_low": 0.0}, {"gamma_high": -1.0}, {"gamma_high": math.inf},
               {"gamma_high": math.nan}, {"gamma_high": 1e7}):
        with pytest.raises(ValueError):
            CoordinatorConfig(**kw)


def test_config_validation():
    with pytest.raises(ValueError):
        CoordinatorConfig(window_size=0)
    with pytest.raises(ValueError):
        CoordinatorConfig(clock="lamport")


# --- golden timeline: ambiguous approach, fast escalation --------------------

def test_case_escalation_cancels_slow():
    """Green -> Yellow (slow dispatched) -> Red overrides before the verdict."""
    manifest = grid_manifest(
        times=[0.0, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.1, 2.4, 3.0, 5.0])
    fast, slow = merged(
        [(0.0, 1.0, "green"), (1.0, 2.1, "yellow"), (2.1, 99.0, "red")],
        [(0.9, 1.1, 0, 5.0)],  # would arrive at 6.0, long after the override
    )
    trace = run_case(manifest, fast, slow, CFG)

    assert sample_times(trace) == [0, 1_000_000, 1_200_000, 1_400_000,
                                   1_600_000, 1_800_000, 2_000_000, 2_200_000]
    dispatches = trace.events_of(SlowDispatched)
    assert [d.trigger_t for d in dispatches] == [1.0]
    assert dispatches[0].window_frame_times == (0.0, 1.0)  # all frames seen so far

    assert trace.events_of(Override) == [Override(t=2.2)]
    assert trace.events_of(SlowVerdict) == []  # cancelled, never delivered
    assert trace.alert_stream_time == pytest.approx(2.1)
    assert trace.alert_source == AlertSource.FAST
    assert trace.decision == BinaryDecision.INTERVENE
    # alert time 2.1 is well before the pnr at 4.4
    ann = make_ann(intent=2.0, deadline=4.2, pnr=4.4, impact=4.8, end=5.0)
    assert classify_phase(trace.alert_stream_time, ann) == Phase.OPTIMAL
    # sampling staleness (0.1) plus the scripted inference latency (0.05)
    assert trace.end_to_end_latency == pytest.approx(0.15)

    rates = trace.events_of(RateChange)
    assert [(r.t, r.new_rate) for r in rates] == [(1.0, 5.0)]


# --- golden timeline: sustained ambiguity, late fast alert -------------------

def test_case_sustained_yellow_irreversible():
    """Yellow the whole way; the fast alert lands in the irreversible band."""
    times = [round(0.1 * i, 6) for i in range(42)] + [4.12, 4.45, 5.0]
    manifest = grid_manifest(times=times)
    fast, slow = merged(
        [(0.0, 4.12, "yellow"), (4.12, 99.0, "red")],
        [(0.0, 99.0, 0, 100.0)],  # slow stays silent for the whole run
    )
    trace = run_case(manifest, fast, slow, CFG)

    expected = [0] + [200_000 * i for i in range(1, 22)]  # 0, 0.2 ... 4.2
    assert sample_times(trace) == expected
    assert trace.alert_stream_time == pytest.approx(4.12)
    assert trace.alert_source == AlertSource.FAST

    ann = make_ann()  # pnr 4.0, impact 4.5
    assert classify_phase(trace.alert_stream_time, ann) == Phase.IRREVERSIBLE
    # only one slow query in flight for the entire yellow stretch
    assert len(trace.events_of(SlowDispatched)) == 1


# --- golden timeline: slow verdict raced and beaten --------------------------

def test_case_slow_too_late_is_ignored():
    """A 7.11 s slow round-trip arrives after the fast path already acted."""
    manifest = grid_manifest(
        times=[0.0, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.33, 2.5, 5.0])
    fast, slow = merged(
        [(0.0, 1.0, "green"), (1.0, 2.33, "yellow"), (2.33, 99.0, "red")],
        [(0.9, 1.1, 0, 7.11)],  # would arrive at 8.11
    )
    cfg = CoordinatorConfig(actuation_lag=1.56)
    trace = run_case(manifest, fast, slow, cfg)

    assert trace.alert_stream_time == pytest.approx(2.33)
    assert trace.alert_source == AlertSource.FAST
    assert trace.events_of(SlowVerdict) == []  # late verdict never lands
    assert trace.events_of(Override) == [Override(t=2.4)]
    assert trace.physical_stop_time == pytest.approx(3.89)


# --- slow-path alerts --------------------------------------------------------

def test_slow_danger_verdict_alerts():
    manifest = grid_manifest(duration=6.0)
    fast, slow = merged([(0.0, 99.0, "yellow")], [(0.0, 0.1, 1, 1.3)])
    trace = run_case(manifest, fast, slow, CFG)
    verdicts = trace.events_of(SlowVerdict)
    assert verdicts == [SlowVerdict(trigger_t=0.0, arrival_t=1.3, verdict=1)]
    assert trace.alert_source == AlertSource.SLOW
    assert trace.alert_stream_time == pytest.approx(1.3)
    assert trace.end_to_end_latency == pytest.approx(1.3)
    ann = make_ann(intent=1.0, deadline=1.5, pnr=1.7, impact=2.0, end=2.5, duration=6.0)
    summary = summarize_latency(trace, ann)
    assert summary["end_to_end"] == pytest.approx(1.3)
    assert summary["reaction_bias"] == pytest.approx(0.3)


def test_slow_safe_verdict_allows_redispatch():
    """After a SAFE verdict lands, a still-ambiguous scene re-queries."""
    manifest = grid_manifest(duration=3.0)
    fast, slow = merged([(0.0, 99.0, "yellow")],
                        [(0.0, 0.1, 0, 0.3), (0.55, 0.65, 1, 0.3)])
    trace = run_case(manifest, fast, slow, CFG)
    dispatches = [d.trigger_t for d in trace.events_of(SlowDispatched)]
    # t=0 -> SAFE at 0.3 (delivered before the 0.4 sample); re-dispatch at 0.4
    assert dispatches[:2] == [0.0, 0.4]
    verdicts = trace.events_of(SlowVerdict)
    assert verdicts[0] == SlowVerdict(trigger_t=0.0, arrival_t=0.3, verdict=0)


def test_green_does_not_cancel_pending_query():
    """A transient Yellow's slow verdict still fires after the scene greens."""
    manifest = grid_manifest(duration=6.0)
    fast, slow = merged([(0.0, 0.1, "yellow")],  # green everywhere else
                        [(0.0, 0.1, 1, 2.5)])
    trace = run_case(manifest, fast, slow, CFG)
    assert trace.alert_source == AlertSource.SLOW
    assert trace.alert_stream_time == pytest.approx(2.5)


def test_window_size_limits_slow_context():
    manifest = grid_manifest(duration=6.0)
    fast, slow = merged([(0.0, 2.05, "green"), (2.05, 99.0, "yellow")])
    trace = run_case(manifest, fast, slow, CoordinatorConfig(window_size=2))
    dispatch = trace.events_of(SlowDispatched)[0]
    assert len(dispatch.window_frame_times) == 2
    assert dispatch.window_frame_times == (2.0, 3.0)


# --- liveness and degenerate inputs ------------------------------------------

@pytest.mark.parametrize("seconds", [1, 4, 9])
def test_all_green_liveness(seconds):
    manifest = grid_manifest(duration=float(seconds))
    fast, slow = merged([])
    trace = run_case(manifest, fast, slow, CFG)
    assert len(trace.events_of(FrameSampled)) == seconds + 1
    assert trace.alert_stream_time is None
    assert trace.decision == BinaryDecision.NOMINAL
    assert trace.physical_stop_time is None
    with pytest.raises(NoAlert):
        summarize_latency(trace, make_ann())


def test_red_at_first_frame():
    manifest = grid_manifest(duration=2.0)
    fast, slow = merged([(0.0, 99.0, "red")])
    trace = run_case(manifest, fast, slow, CFG)
    assert trace.alert_stream_time == pytest.approx(0.0)
    assert trace.end_to_end_latency == pytest.approx(0.05)
    assert len(trace.events_of(FrameSampled)) == 1


def test_stop_on_first_alert_disabled_runs_to_end():
    manifest = grid_manifest(duration=3.0)
    fast, slow = merged([(0.0, 99.0, "red")])
    trace = run_case(manifest, fast, slow,
                     CoordinatorConfig(stop_on_first_alert=False))
    # keeps sampling at the high rate after the alert, one alert only
    assert len(trace.events_of(FrameSampled)) == 16  # 0, 0.2, ..., 3.0
    assert len(trace.events_of(Alert)) == 1


# --- fault handling ----------------------------------------------------------

def test_malformed_fast_output_treated_as_yellow():
    manifest = grid_manifest(duration=4.0)
    fast = fast_script([], malformed=[(0.0, 0.1)])
    trace = run_case(manifest, fast, slow_script([]), CFG)
    states = trace.events_of(FastState)
    assert states[0].state == SafetyState.YELLOW  # caution despite garbage
    assert len(trace.events_of(SlowDispatched)) == 1
    assert not trace.aborted


def test_malformed_fast_output_strict_mode_aborts():
    manifest = grid_manifest(duration=4.0)
    fast = fast_script([], malformed=[(0.0, 0.1)])
    trace = run_case(manifest, fast, slow_script([]),
                     CoordinatorConfig(fail_toward_caution=False))
    assert trace.aborted
    assert trace.alert_stream_time is None


def test_backend_timeout_aborts_with_partial_trace():
    manifest = grid_manifest(duration=4.0)
    fast = fast_script([(0.0, 2.05, "green")], timeout=[(2.05, 99.0)])
    trace = run_case(manifest, fast, slow_script([]), CFG)
    assert trace.aborted
    assert len(trace.events_of(FastState)) == 3  # 0.0, 1.0, 2.0 succeeded


class GarbageSlow:
    def slow_raw(self, prompt_text, window):
        return "total nonsense with no marker", 0.5


def test_unparseable_slow_output_counts_as_no_danger():
    manifest = grid_manifest(duration=3.0)
    fast, _ = merged([(0.0, 0.1, "yellow")])
    trace = run_case(manifest, fast, GarbageSlow(), CFG)
    verdicts = trace.events_of(SlowVerdict)
    assert verdicts and verdicts[0].verdict == 0
    assert verdicts[0].arrival_t == pytest.approx(0.5)  # the backend's latency stands
    assert trace.alert_stream_time is None


def test_unparseable_slow_output_keeps_latency_real_clock():
    """The wall clock keeps the reported latency of a garbage reply too."""
    manifest = grid_manifest(duration=1.0)
    fast, _ = merged([(0.0, 0.1, "yellow")])
    trace = run_case(manifest, fast, GarbageSlow(), CoordinatorConfig(clock="real"))
    [verdict] = trace.events_of(SlowVerdict)
    assert verdict.verdict == 0
    assert verdict.arrival_t - verdict.trigger_t >= 0.5


# --- randomized protocol properties ------------------------------------------

def _random_case(rng):
    duration = rng.choice([3.0, 5.0, 8.0])
    manifest = grid_manifest(case_id=f"rnd-{rng.random():.6f}", duration=duration)
    edges = sorted(round(rng.uniform(0, duration), 1) for _ in range(rng.randrange(1, 5)))
    bounds = [0.0] + edges + [99.0]
    states = [rng.choice(["green", "yellow", "red"]) for _ in range(len(bounds) - 1)]
    fast_rules = [(a, b, s) for (a, b), s in zip(zip(bounds, bounds[1:]), states)
                  if b > a]
    slow_rules = []
    t = 0.0
    while t < duration:
        end = round(t + rng.uniform(0.2, 1.5), 1)
        slow_rules.append((t, end, rng.randrange(2),
                           round(rng.uniform(0.3, 3.0), 2)))
        t = end
    fast = fast_script(fast_rules)
    return manifest, fast, slow_script(slow_rules)


def _check_protocol(trace, cfg, manifest):
    # (a) rate correctness: each inter-sample gap matches the prior state
    samples = trace.events_of(FrameSampled)
    states = {round(s.t * _US): s.state for s in trace.events_of(FastState)}
    for a, b in zip(samples, samples[1:]):
        gap = round(b.t * _US) - round(a.t * _US)
        prior = states[round(a.t * _US)]
        expected = _US if prior == SafetyState.GREEN else _US // 5
        assert gap == expected, (a.t, b.t, prior)

    # (b) single flight: never two dispatches without a verdict/override between
    open_queries = 0
    red_while_pending = None
    for ev in trace.events:
        if isinstance(ev, SlowDispatched):
            open_queries += 1
            assert open_queries == 1
        elif isinstance(ev, (SlowVerdict, Override)):
            open_queries = max(0, open_queries - 1)
        if isinstance(ev, FastState) and ev.state == SafetyState.RED \
                and open_queries and red_while_pending is None:
            red_while_pending = ev.t

    # (c) override dominance: Red during a pending query forces a fast alert
    if red_while_pending is not None:
        assert trace.decision == BinaryDecision.INTERVENE
        assert trace.alert_source == AlertSource.FAST
        assert any(isinstance(ev, Override) for ev in trace.events)

    # (d) events are time-ordered
    times = [ev.t for ev in trace.events]
    assert all(a <= b + 1e-9 for a, b in zip(times, times[1:]))

    # (e) each slow window is 1..k time-ordered frames ending at the trigger frame
    for d in trace.events_of(SlowDispatched):
        window = d.window_frame_times
        assert 1 <= len(window) <= cfg.window_size
        assert all(a <= b for a, b in zip(window, window[1:]))
        assert window[-1] == manifest.latest_frame_at(d.trigger_t).t


def test_randomized_protocol_properties():
    rng = random.Random(7)
    for _ in range(120):
        manifest, fast, slow = _random_case(rng)
        trace = run_case(manifest, fast, slow, CFG)
        assert not trace.aborted
        _check_protocol(trace, CFG, manifest)


def test_reruns_are_bit_identical():
    rng = random.Random(11)
    for _ in range(25):
        manifest, fast, slow = _random_case(rng)
        first = json.dumps(run_case(manifest, fast, slow, CFG).to_dict(), sort_keys=True)
        second = json.dumps(run_case(manifest, fast, slow, CFG).to_dict(), sort_keys=True)
        assert first == second


# --- wall-clock smoke test ---------------------------------------------------

def test_real_clock_smoke():
    """The threaded path produces the same decision on a tiny case."""
    manifest = grid_manifest(duration=1.0)
    fast, slow = merged([(0.0, 99.0, "yellow")], [(0.0, 0.1, 1, 0.05)])
    trace = run_case(manifest, fast, slow, CoordinatorConfig(clock="real"))
    assert trace.alert_source == AlertSource.SLOW
    assert trace.decision == BinaryDecision.INTERVENE
