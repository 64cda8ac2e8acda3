"""Value-object invariants and JSON round-trips for the core types."""

import json
import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, strategies as st

from streamguard.coordinator import CoordinatorConfig, run_case
from streamguard.model import (
    Alert,
    AlertSource,
    BinaryDecision,
    CaseAnnotation,
    DeadlineError,
    DecisionTrace,
    FastState,
    Frame,
    FrameManifest,
    FrameSampled,
    KeyFrames,
    OrderingError,
    Override,
    Phase,
    PhaseScoreTable,
    PredictionRecord,
    RateChange,
    SafetyState,
    SchemaError,
    SlowDispatched,
    SlowVerdict,
    event_from_dict,
    event_to_dict,
    _EPS,
)

from helpers import fast_script, grid_manifest, make_ann, slow_script


# --- KeyFrames ---------------------------------------------------------------

def kf(intent=3.6, deadline=3.8, pnr=4.0, impact=4.5, end=5.0):
    return KeyFrames(intent_onset=intent, pnr=pnr, intervention_deadline=deadline,
                     impact=impact, action_end=end)


def test_keyframes_valid():
    frames = kf()
    assert frames.intent_onset == 3.6
    assert frames.action_end == 5.0


@pytest.mark.parametrize("kwargs", [
    dict(intent=4.0, deadline=3.8),           # intent after deadline
    dict(impact=3.0),                          # impact before pnr
    dict(end=4.0, impact=4.5),                 # end before impact
])
def test_keyframes_ordering_rejected(kwargs):
    with pytest.raises(OrderingError):
        kf(**kwargs)


def test_keyframes_deadline_rule_enforced():
    with pytest.raises(DeadlineError):
        kf(deadline=3.6)  # 0.4 before pnr, beyond the tolerance
    # within the half-tick tolerance
    kf(deadline=3.85)
    kf(deadline=3.75)


def test_keyframes_rejects_nonfinite_and_negative():
    with pytest.raises(SchemaError):
        kf(intent=float("nan"))
    with pytest.raises(SchemaError):
        kf(intent=-1.0)


def test_keyframes_from_dict_synthesizes_deadline():
    frames = KeyFrames.from_dict({"intent_onset": 3.6, "pnr": 4.0,
                                  "impact": 4.5, "action_end": 5.0})
    assert frames.intervention_deadline == pytest.approx(3.8)
    # clamping to intent onset stays within the deadline tolerance
    frames = KeyFrames.from_dict({"intent_onset": 3.82, "pnr": 4.0,
                                  "impact": 4.5, "action_end": 5.0})
    assert frames.intervention_deadline == pytest.approx(3.82)
    # but an intent onset hard against the pnr is contradictory
    with pytest.raises(DeadlineError):
        KeyFrames.from_dict({"intent_onset": 3.95, "pnr": 4.0,
                             "impact": 4.5, "action_end": 5.0})


@given(intent=st.floats(0, 50), gap=st.floats(0.2, 5), tail=st.floats(0, 5),
       tail2=st.floats(0, 5))
def test_keyframes_roundtrip(intent, gap, tail, tail2):
    pnr = intent + gap
    frames = KeyFrames(intent_onset=intent, pnr=pnr,
                       intervention_deadline=pnr - 0.2,
                       impact=pnr + tail, action_end=pnr + tail + tail2)
    assert KeyFrames.from_dict(frames.to_dict()) == frames


# --- CaseAnnotation ----------------------------------------------------------

def test_annotation_closed_sets():
    with pytest.raises(SchemaError):
        make_ann(location="garage")
    with pytest.raises(SchemaError):
        make_ann(category="C9")
    with pytest.raises(SchemaError):
        make_ann(severity="L5")
    with pytest.raises(SchemaError):
        make_ann(difficulty="D4")


def test_annotation_entities_required_for_visible_hazards():
    with pytest.raises(SchemaError):
        make_ann(difficulty="D1", entities=())
    with pytest.raises(SchemaError):
        make_ann(difficulty="D2", entities=())
    make_ann(difficulty="D3", entities=())  # intent-dependent cases may omit


def test_annotation_entities_lowercase():
    with pytest.raises(SchemaError):
        make_ann(entities=("Kettle",))


def test_annotation_end_within_duration():
    with pytest.raises(OrderingError):
        make_ann(end=6.5, duration=6.0)


def test_annotation_roundtrip():
    ann = make_ann(is_valid=False, entities=("knife", "power strip"))
    assert CaseAnnotation.from_dict(ann.to_dict()) == ann


def test_annotation_from_dict_missing_field():
    d = make_ann().to_dict()
    del d["duration"]
    with pytest.raises(SchemaError):
        CaseAnnotation.from_dict(d)


@pytest.mark.parametrize("value_of,field,value", [
    (lambda: grid_manifest(duration=1.0), "pre_overlaid", "false"),
    (make_ann, "is_valid", "false"),
    (make_ann, "key_entities", "cable"),
], ids=["pre_overlaid", "is_valid", "key_entities"])
def test_decoders_reject_coercible_json_types(value_of, field, value):
    """A string is never read as a boolean or as a list of characters."""
    obj = value_of()
    d = obj.to_dict()
    decode = type(obj).from_dict
    assert decode(d) == obj  # the well-typed dict decodes
    with pytest.raises(SchemaError, match=field):
        decode({**d, field: value})


# --- PhaseScoreTable ---------------------------------------------------------

def test_score_table_default_values():
    table = PhaseScoreTable.default()
    assert table[Phase.OPTIMAL] == 100.0
    assert table[Phase.SUBOPTIMAL] == 50.0
    assert table[Phase.IRREVERSIBLE] == 25.0
    assert table[Phase.PREMATURE] == 0.0
    assert table[Phase.MISSED] == 0.0


def test_score_table_requires_all_phases():
    with pytest.raises(SchemaError):
        PhaseScoreTable({Phase.OPTIMAL: 100.0})


def test_score_table_range_check():
    scores = PhaseScoreTable.default().scores.copy()
    scores[Phase.OPTIMAL] = 101.0
    with pytest.raises(SchemaError):
        PhaseScoreTable(scores)


def test_score_table_roundtrip():
    table = PhaseScoreTable.default()
    assert PhaseScoreTable.from_dict(table.to_dict()) == table


# --- PredictionRecord --------------------------------------------------------

def test_prediction_hazard_needs_timestamp():
    with pytest.raises(SchemaError):
        PredictionRecord(case_id="c", verdict="hazard")
    with pytest.raises(SchemaError):
        PredictionRecord(case_id="c", verdict="hazard", timestamp=-0.5)
    with pytest.raises(SchemaError):
        PredictionRecord(case_id="c", verdict="maybe")


def test_prediction_effective_timestamp():
    ok = PredictionRecord(case_id="c", verdict="hazard", timestamp=2.5)
    assert ok.is_hazard and ok.effective_timestamp == 2.5
    safe = PredictionRecord(case_id="c", verdict="safe")
    assert not safe.is_hazard and safe.effective_timestamp is None
    bad = PredictionRecord(case_id="c", verdict="hazard", timestamp=2.5,
                           parse_status="format_error")
    assert not bad.is_hazard and bad.effective_timestamp is None


@given(st.booleans(), st.one_of(st.none(), st.floats(0, 100)),
       st.sampled_from([None, "none", "L1", "L2", "L3", "L4"]))
def test_prediction_roundtrip(hazard, ts, claim):
    if hazard and ts is None:
        ts = 1.0
    rec = PredictionRecord(case_id="c", verdict="hazard" if hazard else "safe",
                           timestamp=ts if hazard else None, severity_claim=claim,
                           reasoning_text="a kettle", raw_output="x")
    assert PredictionRecord.from_dict(rec.to_dict()) == rec


# --- Frames and manifests ----------------------------------------------------

def test_manifest_requires_frames_and_order():
    with pytest.raises(SchemaError):
        FrameManifest(case_id="c", fps_native=10.0, frames=())
    with pytest.raises(SchemaError):
        FrameManifest(case_id="c", fps_native=10.0,
                      frames=(Frame(t=1.0), Frame(t=0.5)))


def test_latest_frame_at():
    m = FrameManifest(case_id="c", fps_native=10.0,
                      frames=(Frame(t=0.0), Frame(t=1.0), Frame(t=2.1)))
    assert m.latest_frame_at(0.0).t == 0.0
    assert m.latest_frame_at(0.9).t == 0.0
    assert m.latest_frame_at(1.0).t == 1.0
    assert m.latest_frame_at(2.2).t == 2.1
    assert m.latest_frame_at(50.0).t == 2.1
    assert m.duration == 2.1


@pytest.mark.parametrize("times", [
    (0.0, math.nan, 2.0),  # NaN compares false, so it passed the ordering check
    (0.0, math.inf),       # an infinite duration made run_case sample forever
    (-math.inf, 0.0),
    (-0.5, 0.0),
], ids=["nan", "inf", "-inf", "negative"])
def test_manifest_rejects_bad_frame_time(times):
    with pytest.raises(SchemaError, match="manifest for c has a frame time"):
        FrameManifest(case_id="c", fps_native=10.0, frames=tuple(Frame(t=t) for t in times))


def _linear_latest_frame_at(m, t):
    """The lookup rule as a linear scan: the reference for the bisect."""
    best = m.frames[0]
    for frame in m.frames:
        if frame.t <= t + _EPS:
            best = frame
        else:
            break
    return best


@st.composite
def _frame_times(draw):
    """1..200 sorted times with exact duplicates and near-duplicates within _EPS."""
    base = draw(st.lists(st.floats(0, 1e4), min_size=1, max_size=150))
    extra = draw(st.lists(st.tuples(st.sampled_from(base),
                                    st.sampled_from([0.0, _EPS / 2, _EPS, 2 * _EPS])),
                          max_size=50))
    return sorted(base + [t + d for t, d in extra])


@given(_frame_times(), st.lists(st.floats(-10, 2e4), max_size=10))
def test_latest_frame_at_matches_linear_scan(times, extra_probes):
    frames = tuple(Frame(t=t, image_path=f"{i}.jpg") for i, t in enumerate(times))
    m = FrameManifest(case_id="c", fps_native=30.0, frames=frames)
    h = hash(m)
    probes = [times[0] - 1.0, times[-1] + 1.0, *extra_probes]
    for t in times:
        probes += [t, t - _EPS / 2, t + _EPS / 2, t - 2 * _EPS, t + 2 * _EPS]
    for t in probes:
        assert m.latest_frame_at(t) is _linear_latest_frame_at(m, t), t

    # A decoded manifest builds its frames lazily; the identity holds whether
    # the lookups come before the first ``frames`` read or after it.
    before = FrameManifest.from_dict(m.to_dict())
    found = [before.latest_frame_at(t) for t in probes]
    for t, frame in zip(probes, found):
        assert frame is _linear_latest_frame_at(before, t) is before.latest_frame_at(t), t
    after = FrameManifest.from_dict(m.to_dict())
    assert after.frames == frames
    for t in probes:
        assert after.latest_frame_at(t) is _linear_latest_frame_at(after, t), t

    # The cached times are not part of the value.
    assert [f.name for f in fields(m)] == ["case_id", "fps_native", "frames", "pre_overlaid"]
    assert "_times" not in repr(m)
    assert set(m.to_dict()) == {"case_id", "fps_native", "frames", "pre_overlaid"}
    assert FrameManifest.from_dict(m.to_dict()) == m
    assert hash(m) == h == hash(FrameManifest.from_dict(m.to_dict()))
    # replace() rebuilds the cache from the new frames.
    head = replace(m, frames=frames[:1])
    assert head.latest_frame_at(times[-1] + 1.0) is frames[0]


def test_manifest_roundtrip():
    m = FrameManifest(case_id="c", fps_native=10.0,
                      frames=(Frame(t=0.0, image_path="a.jpg"), Frame(t=0.1)),
                      pre_overlaid=False)
    assert FrameManifest.from_dict(m.to_dict()) == m


@pytest.mark.parametrize("pre_overlaid", [True, False])
def test_decoded_manifest_equals_eager(pre_overlaid):
    m = replace(grid_manifest(duration=2.0), pre_overlaid=pre_overlaid)
    decoded = FrameManifest.from_dict(m.to_dict())
    assert decoded.to_dict() == m.to_dict()
    assert decoded.duration == m.duration
    assert decoded.latest_frame_at(1.05) == m.latest_frame_at(1.05)
    assert "frames" not in vars(decoded)  # all of the above read the columns
    assert decoded == m and m == decoded
    assert hash(decoded) == hash(m)
    assert repr(decoded) == repr(m)
    assert replace(decoded, case_id="d") == replace(m, case_id="d")


def test_manifest_frames_read_once():
    m = grid_manifest(duration=1.0)
    decoded = FrameManifest.from_dict(m.to_dict())
    assert m.frames is m.frames
    assert decoded.frames is decoded.frames


_GOOD_FRAMES = [{"t": 0.0, "image_path": "a.jpg"}, {"t": 0.5, "image_path": "b.jpg"}]


@pytest.mark.parametrize("frames,message", [
    ([_GOOD_FRAMES[0], 3], "manifest m1: frame must be a JSON object, got int"),
    ([_GOOD_FRAMES[0], [0.5]], "manifest m1: frame must be a JSON object, got list"),
    ([_GOOD_FRAMES[0], {"image_path": "b.jpg"}], "manifest m1: missing field 't' in frame"),
    ([_GOOD_FRAMES[0], {"t": "abc"}],
     "manifest m1: frame: could not convert string to float: 'abc'"),
    ("ab", "manifest m1: frame must be a JSON object, got str"),
    (5, "manifest m1: 'int' object is not iterable"),
    ([_GOOD_FRAMES[0], {"t": math.nan}],
     "manifest for m1 has a frame time that is not finite and non-negative"),
    ([{"t": -0.5}, _GOOD_FRAMES[1]],
     "manifest for m1 has a frame time that is not finite and non-negative"),
    ([_GOOD_FRAMES[1], _GOOD_FRAMES[0]], "manifest for m1 frames not time-ordered"),
    ([], "manifest for m1 has no frames"),
], ids=["frame_int", "frame_list", "missing_t", "string_t", "frames_string", "frames_int",
        "nan_t", "negative_t", "unordered", "empty"])
def test_manifest_decode_error_text(frames, message):
    """The decoder's column fast path keeps the per-frame decoder's messages."""
    with pytest.raises(SchemaError) as info:
        FrameManifest.from_dict({"case_id": "m1", "fps_native": 10.0, "frames": frames})
    assert str(info.value) == message


# --- Trace events and DecisionTrace ------------------------------------------

EVENTS = [
    FrameSampled(t=0.0, rate=1.0),
    FastState(t=0.0, state=SafetyState.YELLOW, fast_latency=0.05),
    SlowDispatched(trigger_t=0.0, window_frame_times=(0.0,)),
    RateChange(t=0.0, new_rate=5.0),
    Override(t=0.4),
    Alert(t_alert=0.4, source=AlertSource.FAST),
    SlowVerdict(trigger_t=0.0, arrival_t=1.2, verdict=0),
]


# Hand-written JSON may hold integers where the field is a float; decoding
# coerces them, so the dict re-encodes as the float-valued event would.
INT_VALUED = ({"kind": "rate_change", "t": 1, "new_rate": 5},
              RateChange(t=1.0, new_rate=5.0))


@pytest.mark.parametrize("encoded, event",
                         [(event_to_dict(ev), ev) for ev in EVENTS] + [INT_VALUED],
                         ids=[ev.kind for ev in EVENTS] + ["int_valued"])
def test_event_roundtrip(encoded, event):
    decoded = event_from_dict(encoded)
    assert decoded == event
    assert json.dumps(event_to_dict(decoded)) == json.dumps(event_to_dict(event))


def test_slow_verdict_cannot_precede_trigger():
    with pytest.raises(SchemaError):
        SlowVerdict(trigger_t=2.0, arrival_t=1.0, verdict=1)


def test_trace_roundtrip_and_decision():
    trace = DecisionTrace(case_id="c", events=tuple(EVENTS[:6]),
                          end_to_end_latency=0.05, alert_stream_time=0.4,
                          alert_source=AlertSource.FAST, physical_stop_time=0.4)
    assert DecisionTrace.from_dict(trace.to_dict()) == trace
    assert trace.decision == BinaryDecision.INTERVENE

    quiet = DecisionTrace(case_id="c", events=())
    assert quiet.decision == BinaryDecision.NOMINAL
    assert DecisionTrace.from_dict(quiet.to_dict()) == quiet


def test_trace_to_prediction():
    trace = DecisionTrace(case_id="c", events=(), alert_stream_time=2.1,
                          alert_source=AlertSource.FAST, end_to_end_latency=0.15)
    pred = trace.to_prediction()
    assert pred.verdict == "hazard" and pred.timestamp == 2.1
    assert DecisionTrace(case_id="c", events=()).to_prediction().verdict == "safe"


# Timeline (a) of the golden decision timelines, exactly as written to --out:
# the codec's key order and number formatting are part of the file format.
GOLDEN_A_JSON = (
    '{"case_id": "case-1", "events": ['
    '{"kind": "frame_sampled", "t": 0.0, "rate": 1.0}, '
    '{"kind": "fast_state", "t": 0.0, "state": "green", "fast_latency": 0.05}, '
    '{"kind": "frame_sampled", "t": 1.0, "rate": 1.0}, '
    '{"kind": "fast_state", "t": 1.0, "state": "yellow", "fast_latency": 0.05}, '
    '{"kind": "slow_dispatched", "trigger_t": 1.0, "window_frame_times": [0.0, 1.0]}, '
    '{"kind": "rate_change", "t": 1.0, "new_rate": 5.0}, '
    '{"kind": "frame_sampled", "t": 1.2, "rate": 5.0}, '
    '{"kind": "fast_state", "t": 1.2, "state": "yellow", "fast_latency": 0.05}, '
    '{"kind": "frame_sampled", "t": 1.4, "rate": 5.0}, '
    '{"kind": "fast_state", "t": 1.4, "state": "yellow", "fast_latency": 0.05}, '
    '{"kind": "frame_sampled", "t": 1.6, "rate": 5.0}, '
    '{"kind": "fast_state", "t": 1.6, "state": "yellow", "fast_latency": 0.05}, '
    '{"kind": "frame_sampled", "t": 1.8, "rate": 5.0}, '
    '{"kind": "fast_state", "t": 1.8, "state": "yellow", "fast_latency": 0.05}, '
    '{"kind": "frame_sampled", "t": 2.0, "rate": 5.0}, '
    '{"kind": "fast_state", "t": 2.0, "state": "yellow", "fast_latency": 0.05}, '
    '{"kind": "frame_sampled", "t": 2.2, "rate": 5.0}, '
    '{"kind": "fast_state", "t": 2.2, "state": "red", "fast_latency": 0.05}, '
    '{"kind": "override", "t": 2.2}, '
    '{"kind": "alert", "t_alert": 2.1, "source": "fast"}], '
    '"summary": {"end_to_end_latency": 0.15000000000000008, "alert_stream_time": 2.1, '
    '"alert_source": "fast", "physical_stop_time": 2.1, "aborted": false}}'
)


def test_golden_trace_bytes():
    manifest = grid_manifest(
        times=[0.0, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.1, 2.4, 3.0, 5.0])
    fast = fast_script([(0.0, 1.0, "green"), (1.0, 2.1, "yellow"),
                        (2.1, 99.0, "red")])
    slow = slow_script([(0.9, 1.1, 0, 5.0)])
    trace = run_case(manifest, fast, slow, CoordinatorConfig())
    assert json.dumps(trace.to_dict()) == GOLDEN_A_JSON
