"""Dual-brain protocol: golden timelines, override dominance, sampling
rates, single-flight dispatch, determinism, failure handling, and the
real-clock loop on virtual time."""

import json
import logging
import math
import random

import pytest

from streamguard import coordinator
from streamguard.backends import (BackendTimeoutError, ScriptedBackend, TransportError,
                                  load_prompt)
from streamguard.baseline import run_baseline_case
from streamguard.coordinator import GAMMA_LOW, WINDOW_SIZE, CoordinatorConfig, run_case
from streamguard.metrics import ErrorType, classify_error
from streamguard.model import (
    AlertSource,
    DecisionTrace,
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
from streamguard.parsing import parse_fast_output

from helpers import VirtualWallClock, fast_script, grid_manifest, make_ann, slow_script

CFG = CoordinatorConfig()

_US = 1_000_000


def merged(fast_rules, slow_rules=()):
    backend = fast_script(fast_rules)
    return backend, slow_script(slow_rules)


def sample_times(trace):
    return [round(ev.t * _US) for ev in trace.events_of(FrameSampled)]


# --- configuration -----------------------------------------------------------

def test_config_rejects_bad_rates():
    # 1e7 rounds to a 0 us interval, which would never advance the clock, and
    # 1e-320's interval overflows to inf
    for rate in (0.0, -1.0, math.inf, math.nan, 1e-320):
        with pytest.raises(ValueError, match="must be positive and finite"):
            CoordinatorConfig(gamma_high=rate)
    with pytest.raises(ValueError, match="interval under 1 us"):
        CoordinatorConfig(gamma_high=1e7)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown clock"):
        CoordinatorConfig(clock="lamport")


def test_slow_prompt_states_the_window_size():
    """The slow prompt names the frames a query carries, so it must name the
    window the coordinator sends."""
    assert f"a sequence of {WINDOW_SIZE} frames" in load_prompt("slow").text


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
    assert trace.alert_stream_time is not None
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
    trace = run_case(manifest, fast, slow, CFG)

    assert trace.alert_stream_time == pytest.approx(2.33)
    assert trace.alert_source == AlertSource.FAST
    assert trace.events_of(SlowVerdict) == []  # late verdict never lands
    assert trace.events_of(Override) == [Override(t=2.4)]


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
    # reaction bias against an intent onset at 1.0 s: 0.3 s late
    assert trace.alert_stream_time - 1.0 == pytest.approx(0.3)


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
    fast, slow = merged([(0.0, 3.05, "green"), (3.05, 99.0, "yellow")])
    trace = run_case(manifest, fast, slow, CFG)
    assert sample_times(trace)[:5] == [0, 1_000_000, 2_000_000, 3_000_000, 4_000_000]
    dispatch = trace.events_of(SlowDispatched)[0]
    # five frames are sampled by the first dispatch; the query carries the last three
    assert dispatch.trigger_t == 4.0
    assert dispatch.window_frame_times == (2.0, 3.0, 4.0)


# --- liveness and degenerate inputs ------------------------------------------

@pytest.mark.parametrize("seconds", [1, 4, 9])
def test_all_green_liveness(seconds):
    manifest = grid_manifest(duration=float(seconds))
    fast, slow = merged([])
    trace = run_case(manifest, fast, slow, CFG)
    assert len(trace.events_of(FrameSampled)) == seconds + 1
    assert trace.alert_stream_time is None
    assert trace.alert_source is None
    assert trace.end_to_end_latency is None


def test_sim_clock_does_not_charge_fast_latency():
    """A FastBrain slower than its sampling interval does not delay the
    next sample under the sim clock: the 1 s idle grid holds at 1.5 s."""
    manifest = grid_manifest(duration=4.0)
    fast, slow = merged([(0.0, 99.0, "green", 1.5)])
    trace = run_case(manifest, fast, slow, CFG)
    assert sample_times(trace) == [0, 1_000_000, 2_000_000, 3_000_000, 4_000_000]
    assert all(s.fast_latency == 1.5 for s in trace.events_of(FastState))


def test_red_at_first_frame():
    manifest = grid_manifest(duration=2.0)
    fast, slow = merged([(0.0, 99.0, "red")])
    trace = run_case(manifest, fast, slow, CFG)
    assert trace.alert_stream_time == pytest.approx(0.0)
    assert trace.end_to_end_latency == pytest.approx(0.05)
    assert len(trace.events_of(FrameSampled)) == 1


# --- fault handling ----------------------------------------------------------

def test_malformed_fast_output_treated_as_yellow():
    manifest = grid_manifest(duration=4.0)
    fast = fast_script([], malformed=[(0.0, 0.1)])
    trace = run_case(manifest, fast, slow_script([]), CFG)
    states = trace.events_of(FastState)
    assert states[0].state == SafetyState.YELLOW  # caution despite garbage
    assert len(trace.events_of(SlowDispatched)) == 1
    assert not trace.aborted


class DeepNestFast:
    """A FastBrain reply nested deeper than the JSON decoder can follow."""

    def fast_raw(self, prompt_text, frame):
        return '{"a":' * 100_000 + "1" + "}" * 100_000, 0.05


def test_deeply_nested_fast_output_treated_as_yellow():
    manifest = grid_manifest(duration=2.0)
    trace = run_case(manifest, DeepNestFast(), slow_script([]), CFG)
    states = trace.events_of(FastState)
    assert states and all(s.state == SafetyState.YELLOW and s.fast_latency == 0.0
                          for s in states)
    assert len(trace.events_of(SlowDispatched)) >= 1
    assert not trace.aborted


def test_backend_timeout_aborts_with_partial_trace():
    manifest = grid_manifest(duration=4.0)
    fast = fast_script([(0.0, 2.05, "green")], timeout=[(2.05, 99.0)])
    trace = run_case(manifest, fast, slow_script([]), CFG)
    assert trace.aborted
    assert trace.abort_reason == "timeout: scripted timeout at t=3.0"
    assert len(trace.events_of(FastState)) == 3  # 0.0, 1.0, 2.0 succeeded


class GarbageSlow:
    def slow_raw(self, prompt_text, window):
        return "total nonsense with no marker", 0.5


def test_unparseable_slow_output_aborts_the_case():
    """A SlowBrain reply that does not parse is no verdict: it aborts the
    case once the loop passes its arrival, the backend's 0.5 s latency."""
    manifest = grid_manifest(duration=3.0)
    fast, _ = merged([(0.0, 0.1, "yellow")])
    trace = run_case(manifest, fast, GarbageSlow(), CFG)
    assert trace.events_of(SlowVerdict) == []
    assert (trace.aborted, trace.abort_reason) == (True, "schema: missing_verdict")
    assert sample_times(trace) == [0, 200_000]  # the next sample, at 1.2 s, is past 0.5 s
    assert trace.alert_stream_time is None


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
        rate = GAMMA_LOW if prior == SafetyState.GREEN else cfg.gamma_high
        expected = round(_US * (1.0 / rate))
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
        assert trace.alert_stream_time is not None
        assert trace.alert_source == AlertSource.FAST
        assert any(isinstance(ev, Override) for ev in trace.events)

    # (d) events are time-ordered
    times = [ev.t for ev in trace.events]
    assert all(a <= b + 1e-9 for a, b in zip(times, times[1:]))

    # (e) each slow window is 1..WINDOW_SIZE time-ordered frames ending at the trigger frame
    for d in trace.events_of(SlowDispatched):
        window = d.window_frame_times
        assert 1 <= len(window) <= WINDOW_SIZE
        assert all(a <= b for a, b in zip(window, window[1:]))
        assert window[-1] == manifest.latest_frame_at(d.trigger_t).t


def _check_random_cases(cfg):
    rng = random.Random(7)
    for _ in range(120):
        manifest, fast, slow = _random_case(rng)
        trace = run_case(manifest, fast, slow, cfg)
        assert not trace.aborted
        _check_protocol(trace, cfg, manifest)


def test_randomized_protocol_properties():
    _check_random_cases(CFG)


@pytest.mark.parametrize("gamma_high", [2.0, 10.0])
def test_randomized_protocol_properties_other_high_rates(gamma_high):
    """``gamma_high`` is the one settable rate: the gaps follow it."""
    _check_random_cases(CoordinatorConfig(gamma_high=gamma_high))


def test_reruns_are_bit_identical():
    rng = random.Random(11)
    for _ in range(25):
        manifest, fast, slow = _random_case(rng)
        first = json.dumps(run_case(manifest, fast, slow, CFG).to_dict(), sort_keys=True)
        second = json.dumps(run_case(manifest, fast, slow, CFG).to_dict(), sort_keys=True)
        assert first == second


# --- the real-clock loop on virtual time ------------------------------------

REAL = CoordinatorConfig(clock="real")


@pytest.fixture
def virtual_clocks(monkeypatch):
    """Runs ``clock="real"`` on a ``VirtualWallClock``; the clocks the
    cases built, in order."""
    clocks = []

    def make():
        clocks.append(VirtualWallClock())
        return clocks[-1]

    monkeypatch.setitem(coordinator._CLOCKS, "real", make)
    return clocks


def test_randomized_protocol_properties_real_clock(virtual_clocks):
    """Criterion 3's cases through the real-clock loop.  The decisions may
    differ from the sim clock's: the loop sees a verdict only at its next
    sample, so each verdict lands on a sample time or, once the stream has
    ended, when its reply is due."""
    rng = random.Random(7)
    for _ in range(120):
        manifest, fast, slow = _random_case(rng)
        trace = run_case(manifest, fast, slow, REAL)
        assert not trace.aborted
        _check_protocol(trace, REAL, manifest)
        samples = {ev.t for ev in trace.events_of(FrameSampled)}
        last_sample = max(samples)
        for verdict in trace.events_of(SlowVerdict):
            assert verdict.arrival_t in samples or verdict.arrival_t > last_sample
    assert len(virtual_clocks) == 120
    assert all(clock.shutdowns == 1 for clock in virtual_clocks)


def test_unparseable_slow_output_keeps_latency_real_clock(virtual_clocks):
    """The real clock keeps the reported latency of a garbage reply too: the
    0.5 s reply is seen at the next 5 Hz sample, 0.6 s, and aborts the case
    before the sample after it."""
    manifest = grid_manifest(duration=1.0)
    fast, _ = merged([(0.0, 99.0, "yellow")])
    trace = run_case(manifest, fast, GarbageSlow(), REAL)
    assert trace.events_of(SlowVerdict) == []
    assert (trace.aborted, trace.abort_reason) == (True, "schema: missing_verdict")
    assert sample_times(trace) == [0, 200_000, 400_000, 600_000]


@pytest.mark.parametrize("fast_rules,faults,outcome", [
    ([(0.0, 1.5, "yellow"), (1.5, 99.0, "red")], {}, (AlertSource.FAST, False)),
    ([(0.0, 1.5, "yellow")], {}, (None, False)),
    ([(0.0, 1.5, "yellow")], {"timeout": [(1.5, 99.0)]}, (None, True)),
], ids=["alert", "stream end", "abort"])
def test_real_clock_shuts_down_on_every_exit(virtual_clocks, fast_rules, faults, outcome):
    """The clock is shut down however the case ends, with or without a
    slow reply still in flight."""
    fast = fast_script(fast_rules, **faults)
    trace = run_case(grid_manifest(duration=3.0), fast, slow_script([(0.0, 99.0, 0, 2.0)]), REAL)
    assert (trace.alert_source, trace.aborted) == outcome
    [clock] = virtual_clocks
    assert clock.shutdowns == 1


def test_slow_timeout_aborts_real_clock_case(virtual_clocks):
    """A ``BackendTimeoutError`` from ``slow_raw`` in the worker aborts the
    case when the loop next looks at the reply, as under ``WallClock``."""
    manifest = grid_manifest(duration=3.0)
    fast, _ = merged([(0.0, 99.0, "yellow")])
    slow = ScriptedBackend({"faults": {"timeout": [(0.0, 99.0)]}})
    with pytest.raises(BackendTimeoutError):
        slow.slow_raw("", manifest.frames[:1])
    trace = run_case(manifest, fast, slow, REAL)
    assert trace.aborted
    assert trace.abort_reason == "timeout: scripted timeout at t=0.0"
    assert trace.alert_stream_time is None
    # The reply has failed by the time the loop looks again, before its next sample.
    assert sample_times(trace) == [0]
    assert trace.events[-2:] == (SlowDispatched(0.0, (0.0,)), RateChange(0.0, 5.0))


# --- fault injection -----------------------------------------------------------

def _failing(stage, fault):
    """An always-Yellow scripted backend whose ``stage`` query (``fast``,
    ``slow`` or ``baseline``) raises ``fault``, or, for a str, replies with
    it at once."""
    backend = fast_script([(0.0, 99.0, "yellow")])

    def query(*args):
        if isinstance(fault, str):
            return fault, 0.0
        raise fault

    setattr(backend, f"{stage}_raw", query)
    return backend


_ERRORS = [(TransportError("refused"), "transport: refused"),
           (BackendTimeoutError("too slow"), "timeout: too slow"),
           (RuntimeError("boom"), "backend_bug: RuntimeError: boom")]


@pytest.mark.parametrize("stage,fault,reason", [
    *(pytest.param(stage, fault, reason, id=f"{stage}-{type(fault).__name__}")
      for stage in ("fast", "slow", "baseline") for fault, reason in _ERRORS),
    pytest.param("slow", "no marker here", "schema: missing_verdict", id="slow-garbage"),
])
def test_backend_fault_ends_the_case_as_one_typed_abort(virtual_clocks, stage, fault, reason):
    """A failure at any backend call, and a SlowBrain reply that does not
    parse, end the case in one way: an aborted trace or record with a typed
    reason, which scores as a format error.  Both clocks give one trace."""
    manifest = grid_manifest(duration=3.0)
    backend = _failing(stage, fault)
    if stage == "baseline":
        records = [run_baseline_case(manifest, backend)]
        assert records[0].parse_detail == f"[0.0,2.0]:{reason}"
    else:
        sim, real = traces = [run_case(manifest, backend, backend, cfg) for cfg in (CFG, REAL)]
        assert sim == real
        for trace in traces:
            assert (trace.aborted, trace.abort_reason) == (True, reason)
            assert trace.alert_stream_time is None and not trace.events_of(SlowVerdict)
            assert DecisionTrace.from_dict(json.loads(trace.to_json())) == trace
        records = [trace.to_prediction() for trace in traces]
    ann = make_ann(case_id=manifest.case_id)
    for record in records:
        assert (record.verdict, record.parse_status) == ("safe", "aborted")
        assert record.parse_detail.endswith(reason)
        assert classify_error(record, ann) is ErrorType.FORMAT_ERROR


# --- wall-clock smoke test ---------------------------------------------------

def test_real_clock_smoke():
    """The threaded path produces the same decision on a tiny case."""
    manifest = grid_manifest(duration=1.0)
    fast, slow = merged([(0.0, 99.0, "yellow")], [(0.0, 0.1, 1, 0.05)])
    trace = run_case(manifest, fast, slow, CoordinatorConfig(clock="real"))
    assert trace.alert_source == AlertSource.SLOW
    assert trace.alert_stream_time is not None


# --- FastBrain reply reuse ---------------------------------------------------

GREEN = json.dumps({"category": "green", "reason": "clear"})
GARBAGE = "the scene looks fine"


@pytest.fixture
def parsed(monkeypatch):
    """The replies ``run_case`` parses, in order."""
    calls = []

    def spy(raw):
        calls.append(raw)
        return parse_fast_output(raw)

    monkeypatch.setattr(coordinator, "parse_fast_output", spy)
    return calls


class Recording:
    """Wraps a FastBrain and keeps every reply it sends."""

    def __init__(self, backend):
        self.backend = backend
        self.sent = []

    def fast_raw(self, prompt_text, frame):
        raw, latency = self.backend.fast_raw(prompt_text, frame)
        self.sent.append(raw)
        return raw, latency


class Replies:
    """A FastBrain that sends ``replies`` in turn, then the last one again;
    each reply is a new ``str`` object."""

    def __init__(self, replies, latency=0.05):
        self.replies = replies
        self.latency = latency
        self.sent = []

    def fast_raw(self, prompt_text, frame):
        reply = self.replies[min(len(self.sent), len(self.replies) - 1)]
        reply = reply[:1] + reply[1:]
        self.sent.append(reply)
        return reply, self.latency


def test_equal_replies_are_parsed_once_per_run(parsed):
    fast = Recording(fast_script([(0.0, 3.0, "green"), (3.0, 5.0, "yellow"),
                                  (5.0, 99.0, "green")]))
    trace = run_case(grid_manifest(duration=8.0), fast, slow_script([]), CFG)
    runs = [raw for i, raw in enumerate(fast.sent) if i == 0 or raw != fast.sent[i - 1]]
    assert len(runs) == 3 < len(fast.sent) == len(trace.events_of(FastState))
    assert parsed == runs


def test_equal_but_distinct_replies_are_reused(parsed):
    fast = Replies([GREEN])
    trace = run_case(grid_manifest(duration=4.0), fast, slow_script([]), CFG)
    assert len(fast.sent) == 5
    assert len({id(raw) for raw in fast.sent}) == 5  # five objects, one text
    assert parsed == [GREEN]
    assert all(s.state is SafetyState.GREEN and s.fast_latency == 0.05
               for s in trace.events_of(FastState))


def test_unparseable_reply_between_equal_replies_is_parsed_every_time(parsed, caplog):
    """A reply that fails to parse is not kept: each such sample is parsed,
    logged and counted as Yellow, and the good reply around it is reused."""
    fast = Replies([GREEN, GARBAGE, GARBAGE, GREEN, GARBAGE, GREEN])
    with caplog.at_level(logging.WARNING, logger="streamguard.coordinator"):
        trace = run_case(grid_manifest(duration=4.0), fast, slow_script([]), CFG)
    green, yellow = SafetyState.GREEN, SafetyState.YELLOW
    states = trace.events_of(FastState)[:6]
    assert [s.state for s in states] == [green, yellow, yellow, green, yellow, green]
    assert [s.fast_latency for s in states] == [0.05, 0.0, 0.0, 0.05, 0.0, 0.05]
    assert parsed == [GREEN, GARBAGE, GARBAGE, GARBAGE]
    assert sum("fast output unparseable" in r.getMessage() for r in caplog.records) == 3


def test_replies_that_vary_are_each_parsed(parsed):
    class Varying:
        def fast_raw(self, prompt_text, frame):
            return json.dumps({"category": "green", "reason": f"at {frame.t}"}), 0.05

    trace = run_case(grid_manifest(duration=4.0), Varying(), slow_script([]), CFG)
    assert len(parsed) == len(set(parsed)) == len(trace.events_of(FastState)) == 5


class Suffixed:
    """Sends each reply with a different trailing word, which the parser
    ignores: no two replies are equal, so every one is parsed."""

    def __init__(self, backend):
        self.backend = backend
        self.n = 0

    def fast_raw(self, prompt_text, frame):
        raw, latency = self.backend.fast_raw(prompt_text, frame)
        self.n += 1
        return f"{raw} {self.n}", latency


def test_reply_reuse_keeps_every_trace():
    """Reusing a parse gives the trace that parsing every reply gives."""
    rng = random.Random(23)
    for i in range(40):
        manifest, fast, slow = _random_case(rng)
        if i % 4 == 0:
            fast.malformed = ((round(rng.uniform(0, 2), 1), round(rng.uniform(2, 4), 1)),)
        reused = run_case(manifest, fast, slow, CFG).to_dict()
        assert run_case(manifest, Suffixed(fast), slow, CFG).to_dict() == reused
