"""Value-object invariants and JSON round-trips for the core types."""

import copy
import json
import math
from dataclasses import FrozenInstanceError, fields, replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from streamguard.coordinator import CoordinatorConfig, run_case
from streamguard.model import (
    DEADLINE_OFFSET,
    DEADLINE_TOLERANCE,
    Alert,
    AlertSource,
    CaseAnnotation,
    DeadlineError,
    DecisionTrace,
    FastState,
    Frame,
    FrameManifest,
    FrameSampled,
    KeyFrames,
    ModelError,
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

from helpers import fast_script, grid_manifest, make_ann, reference_manifest_decode, slow_script


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


def _reference_keyframe_checks(intent, pnr, deadline, impact, end):
    """The key-frame checks as a per-field loop and a pairwise scan: the
    reference for the straight-line checks in ``KeyFrames.__post_init__``."""
    values = dict(intent_onset=intent, pnr=pnr, intervention_deadline=deadline,
                  impact=impact, action_end=end)
    for name, v in values.items():
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
            raise SchemaError(f"key frame {name} must be a finite non-negative number, got {v!r}")
    ordered = (intent, deadline, pnr, impact, end)
    if any(a > b + _EPS for a, b in zip(ordered, ordered[1:])):
        raise OrderingError(
            f"key frames must satisfy intent <= deadline <= pnr <= impact <= end, got {ordered}")
    if abs(deadline - (pnr - DEADLINE_OFFSET)) > DEADLINE_TOLERANCE + _EPS:
        raise DeadlineError(f"deadline {deadline} not within {DEADLINE_TOLERANCE}s of "
                            f"pnr - {DEADLINE_OFFSET} = {pnr - DEADLINE_OFFSET}")


_NUDGE = st.sampled_from([0.0, _EPS / 2, -_EPS / 2, _EPS, -_EPS, 2 * _EPS, -2 * _EPS])
_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, -_EPS, 1e308, 0, 4, True, None, "1"]
_JUNK = st.one_of(st.sampled_from(_SPECIAL), st.integers(-2, 10), st.floats())


@st.composite
def _key_frame_values(draw):
    """(intent, pnr, deadline, impact, end): orderings within a few _EPS of
    equal (the deadline against the pnr too), the deadline at its tolerance
    +- _EPS, and up to two fields junk."""
    intent = draw(st.floats(0, 20))
    deadline = intent + draw(st.one_of(_NUDGE, st.floats(0, 1)))
    offset = draw(st.sampled_from([0.0, DEADLINE_TOLERANCE, -DEADLINE_TOLERANCE,
                                   -DEADLINE_OFFSET]))
    pnr = deadline + DEADLINE_OFFSET + offset + draw(_NUDGE)
    impact = pnr + draw(st.one_of(_NUDGE, st.floats(0, 1)))
    end = impact + draw(st.one_of(_NUDGE, st.floats(0, 1)))
    values = [intent, pnr, deadline, impact, end]
    for i in draw(st.lists(st.integers(0, 4), max_size=2)):
        values[i] = draw(_JUNK)
    return values


def _outcome(check, values):
    try:
        check(*values)
    except ModelError as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=300)
@given(_key_frame_values())
def test_keyframes_checks_match_reference(values):
    """Same accept/reject, exception type and message as the reference."""
    assert _outcome(KeyFrames, values) == _outcome(_reference_keyframe_checks, values)


def test_keyframes_one_special_field_matches_reference():
    """Each field in turn set to each special value, the rest valid floats."""
    for i in range(5):
        for special in _SPECIAL:
            values = [3.6, 4.0, 3.8, 4.5, 5.0]
            values[i] = special
            assert _outcome(KeyFrames, values) == _outcome(_reference_keyframe_checks, values)


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
    assert make_ann(end=6.0 + _EPS / 2, duration=6.0).duration == 6.0  # within _EPS
    # Key frames that end before 0 leave the duration's own range check to
    # reject a negative duration.
    with pytest.raises(SchemaError, match="^case c0: duration must be a finite non-negative"):
        CaseAnnotation("c0", "study", "C1", "L1", "D3", SimpleNamespace(action_end=-2.0), (), -1.0)


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


_CASE = make_ann(case_id="a1").to_dict()


def _kf(**kw):
    return {**_CASE, "key_frames": {**_CASE["key_frames"], **kw}}


def _without(name, key_frame=False):
    d = copy.deepcopy(_CASE)
    del (d["key_frames"] if key_frame else d)[name]
    return d


_KF_NUMBER = "key frame {} must be a finite non-negative number, got {}"
_KF_ORDER = "key frames must satisfy intent <= deadline <= pnr <= impact <= end, got "


@pytest.mark.parametrize("entry,error,message", [
    (_kf(intent_onset=math.nan), SchemaError,
     "case a1: key_frames: " + _KF_NUMBER.format("intent_onset", "nan")),
    (_kf(pnr=math.inf), SchemaError, "case a1: key_frames: " + _KF_NUMBER.format("pnr", "inf")),
    (_kf(intervention_deadline=-0.5), SchemaError,
     "case a1: key_frames: " + _KF_NUMBER.format("intervention_deadline", "-0.5")),
    (_kf(impact=-math.inf), SchemaError,
     "case a1: key_frames: " + _KF_NUMBER.format("impact", "-inf")),
    (_kf(action_end="x"), SchemaError,
     "case a1: key_frames: could not convert string to float: 'x'"),
    (_kf(intent_onset=None), SchemaError,
     "case a1: key_frames: float() argument must be a string or a real number, not 'NoneType'"),
    (_kf(intervention_deadline=math.nan, pnr=-1.0), SchemaError,
     "case a1: key_frames: " + _KF_NUMBER.format("pnr", "-1.0")),
    (_kf(intent_onset=3.9), OrderingError, "case a1: " + _KF_ORDER + "(3.9, 3.8, 4.0, 4.5, 5.0)"),
    (_kf(intervention_deadline=4.1), OrderingError,
     "case a1: " + _KF_ORDER + "(3.6, 4.1, 4.0, 4.5, 5.0)"),
    (_kf(impact=3.9), OrderingError, "case a1: " + _KF_ORDER + "(3.6, 3.8, 4.0, 3.9, 5.0)"),
    (_kf(action_end=4.4), OrderingError, "case a1: " + _KF_ORDER + "(3.6, 3.8, 4.0, 4.5, 4.4)"),
    (_kf(intervention_deadline=3.74), DeadlineError,
     "case a1: deadline 3.74 not within 0.05s of pnr - 0.2 = 3.8"),
    ({**_CASE, "location": "garage"}, SchemaError, "unknown location 'garage' for case a1"),
    ({**_CASE, "danger_category": "C9"}, SchemaError, "unknown danger_category 'C9' for case a1"),
    ({**_CASE, "severity": "L5"}, SchemaError, "unknown severity 'L5' for case a1"),
    ({**_CASE, "difficulty": "D4"}, SchemaError, "unknown difficulty 'D4' for case a1"),
    ({**_CASE, "duration": 4.9}, OrderingError, "action_end 5.0 exceeds duration 4.9 for case a1"),
    ({**_CASE, "key_entities": []}, SchemaError, "case a1: key_entities required for D1 cases"),
    ({**_CASE, "difficulty": "D2", "key_entities": []}, SchemaError,
     "case a1: key_entities required for D2 cases"),
    ({**_CASE, "key_entities": ["Kettle"]}, SchemaError,
     "case a1: key_entities must be non-empty lowercase strings"),
    ({**_CASE, "key_entities": [""]}, SchemaError,
     "case a1: key_entities must be non-empty lowercase strings"),
    ({**_CASE, "key_entities": [3]}, SchemaError,
     "case a1: key_entities must be non-empty lowercase strings"),
    ({**_CASE, "key_entities": "cable"}, SchemaError,
     "case a1: key_entities must be a list of strings, got 'cable'"),
    ({**_CASE, "is_valid": 1}, SchemaError, "case a1: is_valid must be a boolean, got 1"),
    ({**_CASE, "case_id": ""}, SchemaError, "case_id must be non-empty"),
    (_without("location"), SchemaError, "missing field 'location' in case a1"),
    (_without("pnr", key_frame=True), SchemaError, "case a1: missing field 'pnr' in key_frames"),
    (5, SchemaError, "case must be a JSON object, got int"),
    ({**_CASE, "key_frames": [1]}, SchemaError,
     "case a1: key_frames must be a JSON object, got list"),
], ids=["intent_nan", "pnr_inf", "deadline_negative", "impact_neg_inf", "end_string",
        "intent_null", "first_bad_field", "intent_after_deadline", "deadline_after_pnr",
        "pnr_after_impact", "impact_after_end", "deadline_tolerance", "location",
        "danger_category", "severity", "difficulty", "end_after_duration", "d1_no_entities",
        "d2_no_entities", "entity_upper", "entity_empty", "entity_int", "entities_string",
        "is_valid_int", "empty_case_id", "missing_location", "missing_pnr", "not_object",
        "key_frames_list"])
def test_annotation_decode_error_text(entry, error, message):
    """Every key-frame and case check keeps its exception type and text."""
    with pytest.raises(ModelError) as info:
        CaseAnnotation.from_dict(entry)
    assert (type(info.value), str(info.value)) == (error, message)


@pytest.mark.parametrize("entry,message", [
    ({**_CASE, "duration": math.nan},
     "case a1: duration must be a finite non-negative number, got nan"),
    ({**_CASE, "duration": math.inf},
     "case a1: duration must be a finite non-negative number, got inf"),
    ({**_CASE, "case_id": None}, "case_id must be a string, got None"),
    ({**_CASE, "case_id": 7}, "case_id must be a string, got 7"),
], ids=["duration_nan", "duration_inf", "case_id_null", "case_id_int"])
def test_annotation_rejects_nonfinite_duration_and_non_string_id(entry, message):
    with pytest.raises(SchemaError) as info:
        CaseAnnotation.from_dict(entry)
    assert str(info.value) == message


_PRED_JSON = {"case_id": "c0", "verdict": "hazard", "timestamp": 1.5}
_TRACE_JSON = {"case_id": "c0", "events": [], "summary": {"aborted": False}}
_SCORES_JSON = {"premature": 0, "optimal": 100, "suboptimal": 50, "irreversible": 25, "missed": 0}


def _verdict(v) -> dict:
    return {**_TRACE_JSON, "events": [{"kind": "slow_verdict", "trigger_t": 0.0,
                                       "arrival_t": 1.0, "verdict": v}]}


@pytest.mark.parametrize("decode,encoded,message", [
    (CaseAnnotation.from_dict, _kf(pnr="4.0"),
     "case a1: key_frames: pnr must be a JSON number, got '4.0'"),
    (CaseAnnotation.from_dict, _kf(intent_onset=True),
     "case a1: key_frames: intent_onset must be a JSON number, got True"),
    (CaseAnnotation.from_dict, _kf(intervention_deadline="nan"),
     "case a1: key_frames: intervention_deadline must be a JSON number, got 'nan'"),
    (CaseAnnotation.from_dict, _kf(impact=False),
     "case a1: key_frames: impact must be a JSON number, got False"),
    (CaseAnnotation.from_dict, _kf(action_end=" 5"),
     "case a1: key_frames: action_end must be a JSON number, got ' 5'"),
    (CaseAnnotation.from_dict, {**_CASE, "duration": "6.0"},
     "case a1: duration must be a JSON number, got '6.0'"),
    (CaseAnnotation.from_dict, {**_CASE, "duration": True},
     "case a1: duration must be a JSON number, got True"),
    (PredictionRecord.from_dict, {**_PRED_JSON, "timestamp": "1.5"},
     "prediction c0: timestamp must be a JSON number, got '1.5'"),
    (PredictionRecord.from_dict, {**_PRED_JSON, "timestamp": True},
     "prediction c0: timestamp must be a JSON number, got True"),
    (DecisionTrace.from_dict, {**_TRACE_JSON, "summary": {"aborted": "no"}},
     "trace c0: aborted must be a boolean, got 'no'"),
    (DecisionTrace.from_dict, {**_TRACE_JSON, "summary": {"aborted": 1}},
     "trace c0: aborted must be a boolean, got 1"),
    (DecisionTrace.from_dict, {**_TRACE_JSON, "summary": {"aborted": None}},
     "trace c0: aborted must be a boolean, got None"),
    (DecisionTrace.from_dict, _verdict("1"), "trace c0: verdict must be a JSON integer, got '1'"),
    (DecisionTrace.from_dict, _verdict(True), "trace c0: verdict must be a JSON integer, got True"),
    (DecisionTrace.from_dict, _verdict(1.7), "trace c0: verdict must be a JSON integer, got 1.7"),
    (DecisionTrace.from_dict, _verdict(7),
     "trace c0: slow verdict must be 0 (SAFE) or 1 (DANGER), got 7"),
    (DecisionTrace.from_dict, _verdict(-1),
     "trace c0: slow verdict must be 0 (SAFE) or 1 (DANGER), got -1"),
    (DecisionTrace.from_dict, _verdict(2),
     "trace c0: slow verdict must be 0 (SAFE) or 1 (DANGER), got 2"),
    (PhaseScoreTable.from_dict, {**_SCORES_JSON, "optimal": "100"},
     "bad score table entry: optimal must be a JSON number, got '100'"),
    (PhaseScoreTable.from_dict, {**_SCORES_JSON, "optimal": True},
     "bad score table entry: optimal must be a JSON number, got True"),
], ids=["pnr_string", "intent_true", "deadline_nan_string", "impact_false", "end_padded_string",
        "duration_string", "duration_true", "timestamp_string", "timestamp_true",
        "aborted_string", "aborted_int", "aborted_null", "verdict_string", "verdict_true",
        "verdict_float", "verdict_7", "verdict_negative", "verdict_2", "score_string",
        "score_true"])
def test_decoders_take_json_numbers_and_booleans_only(decode, encoded, message):
    """A string or a boolean is never read as a number, nor a non-boolean as a flag."""
    with pytest.raises(SchemaError) as info:
        decode(encoded)
    assert str(info.value) == message


def test_decoders_convert_json_integers():
    kf_ints = {"intent_onset": 3, "pnr": 4, "intervention_deadline": 3.8, "impact": 5,
               "action_end": 5}
    ann = CaseAnnotation.from_dict({**_CASE, "key_frames": kf_ints, "duration": 6})
    pred = PredictionRecord.from_dict({**_PRED_JSON, "timestamp": 2})
    values = [*ann.key_frames.to_dict().values(), ann.duration, pred.timestamp]
    assert values == [3.0, 4.0, 3.8, 5.0, 5.0, 6.0, 2.0]
    assert all(type(v) is float for v in values)
    assert DecisionTrace.from_dict({**_TRACE_JSON, "summary": {}}).aborted is False
    assert DecisionTrace.from_dict({**_TRACE_JSON, "summary": {"aborted": True}}).aborted is True


@pytest.mark.parametrize("decode,encoded,message", [
    (CaseAnnotation.from_dict, _kf(impact=10 ** 400),
     "case a1: key_frames: int too large to convert to float"),
    (CaseAnnotation.from_dict, {**_CASE, "duration": 10 ** 400},
     "case a1: int too large to convert to float"),
    (PredictionRecord.from_dict, {**_PRED_JSON, "timestamp": -10 ** 400},
     "prediction c0: int too large to convert to float"),
    (FrameManifest.from_dict, {"case_id": "m1", "frames": [{"t": 10 ** 400}]},
     "manifest m1: frame 0: int too large to convert to float"),
    (FrameManifest.from_dict, {"case_id": "m1", "fps_native": 10 ** 400, "frames": [{"t": 0}]},
     "manifest m1: int too large to convert to float"),
], ids=["key_frame", "duration", "timestamp", "frame_time", "fps_native"])
def test_decoders_refuse_overlarge_integers(decode, encoded, message):
    with pytest.raises(SchemaError) as info:
        decode(encoded)
    assert str(info.value) == message


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
    """The default table, written as a ``--scores`` file would hold it, decodes back."""
    table = PhaseScoreTable.default()
    encoded = json.loads(json.dumps({p.value: s for p, s in table.scores.items()}))
    assert PhaseScoreTable.from_dict(encoded) == table


# --- PredictionRecord --------------------------------------------------------

def test_prediction_hazard_needs_timestamp():
    with pytest.raises(SchemaError):
        PredictionRecord(case_id="c", verdict="hazard")
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(SchemaError, match="^hazard verdict requires a finite non-negative"):
            PredictionRecord(case_id="c", verdict="hazard", timestamp=bad)
    with pytest.raises(SchemaError):
        PredictionRecord(case_id="c", verdict="maybe")
    # A Safe verdict's timestamp is not checked; a str subclass is text.
    class Text(str):
        pass
    assert PredictionRecord("c", "safe", -0.5, None, Text("r"), Text("o"), "ok", Text("d"))


@pytest.mark.parametrize("field,value,message", [
    ("case_id", None, "prediction None: case_id must be a string, got None"),
    ("case_id", 7, "prediction 7: case_id must be a string, got 7"),
    ("reasoning_text", None, "prediction c1: reasoning_text must be a string, got None"),
    ("reasoning_text", 5, "prediction c1: reasoning_text must be a string, got 5"),
    ("raw_output", [], "prediction c1: raw_output must be a string, got []"),
    ("parse_detail", False, "prediction c1: parse_detail must be a string, got False"),
], ids=["case_id_null", "case_id_int", "reasoning_null", "reasoning_int", "raw_output_list",
        "parse_detail_bool"])
def test_prediction_rejects_non_string_fields(field, value, message):
    """A JSON null or number is not read as a case id or as text."""
    with pytest.raises(SchemaError) as info:
        PredictionRecord.from_dict({"case_id": "c1", "verdict": "safe", field: value})
    assert str(info.value) == message


def test_prediction_is_hazard():
    assert PredictionRecord(case_id="c", verdict="hazard", timestamp=2.5).is_hazard
    assert not PredictionRecord(case_id="c", verdict="safe").is_hazard
    assert not PredictionRecord(case_id="c", verdict="hazard", timestamp=2.5,
                                parse_status="format_error").is_hazard


@given(st.booleans(), st.one_of(st.none(), st.floats(0, 100)),
       st.sampled_from([None, "none", "L1", "L2", "L3", "L4"]))
def test_prediction_roundtrip(hazard, ts, claim):
    if hazard and ts is None:
        ts = 1.0
    rec = PredictionRecord(case_id="c", verdict="hazard" if hazard else "safe",
                           timestamp=ts if hazard else None, severity_claim=claim,
                           reasoning_text="a kettle", raw_output="x")
    assert PredictionRecord.from_dict(rec.to_dict()) == rec


@pytest.mark.parametrize("value", [
    make_ann(),
    kf(),
    PredictionRecord(case_id="c", verdict="hazard", timestamp=1.5, severity_claim="L2"),
], ids=["annotation", "key_frames", "prediction"])
def test_read_side_records_are_slotted_values(value):
    assert not hasattr(value, "__dict__")
    assert value == copy.deepcopy(value) and hash(value) == hash(copy.deepcopy(value))
    assert replace(value) == value
    with pytest.raises(FrozenInstanceError):
        setattr(value, fields(value)[0].name, None)


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
        assert m.latest_frame_at(t) == _linear_latest_frame_at(m, t), t

    # A decoded manifest builds its frames lazily; the lookups agree whether
    # they come before the first ``frames`` read or after it.
    before = FrameManifest.from_dict(m.to_dict())
    found = [before.latest_frame_at(t) for t in probes]
    for t, frame in zip(probes, found):
        assert frame == _linear_latest_frame_at(before, t) == before.latest_frame_at(t), t
    after = FrameManifest.from_dict(m.to_dict())
    assert after.frames == frames
    for t in probes:
        assert after.latest_frame_at(t) == _linear_latest_frame_at(after, t), t

    # The cached times are not part of the value.
    assert [f.name for f in fields(m)] == ["case_id", "fps_native", "frames", "pre_overlaid"]
    assert "_times" not in repr(m)
    assert set(m.to_dict()) == {"case_id", "fps_native", "frames", "pre_overlaid"}
    assert FrameManifest.from_dict(m.to_dict()) == m
    assert hash(m) == h == hash(FrameManifest.from_dict(m.to_dict()))
    # replace() rebuilds the cache from the new frames.
    head = replace(m, frames=frames[:1])
    assert head.latest_frame_at(times[-1] + 1.0) == frames[0]


@given(_frame_times(), st.lists(st.floats(-10, 2e4), max_size=10), st.randoms())
def test_frames_at_matches_latest_frame_at(times, extra_probes, rng):
    frames = tuple(Frame(t=t, image_path=f"{i}.jpg") for i, t in enumerate(times))
    built = FrameManifest(case_id="c", fps_native=30.0, frames=frames)
    probes = [times[0] - 1.0, times[-1] + 1.0, *extra_probes]
    for t in times:
        probes += [t, t - _EPS / 2, t + _EPS / 2, t - 2 * _EPS, t + 2 * _EPS]
    shuffled = rng.sample(probes, len(probes))
    window = sorted(rng.sample(probes, min(len(probes), 20)))
    for m in (built, FrameManifest.from_dict(built.to_dict())):
        for ts in (sorted(probes), shuffled, window, window[::-1], []):
            assert list(m.frames_at(ts)) == [m.latest_frame_at(t) for t in ts]


@given(_frame_times(), st.lists(st.floats(-10, 2e4), max_size=10), st.randoms(), st.data())
def test_frame_window_matches_eager_lookups(times, extra_probes, rng, data):
    """``frames_at`` against the eager lookups it stands for: its length, every
    index, negative ones too, slices and iteration."""
    frames = tuple(Frame(t=t, image_path=f"{i}.jpg") for i, t in enumerate(times))
    built = FrameManifest(case_id="c", fps_native=30.0, frames=frames)
    probes = [times[0] - 1.0, times[-1] + 1.0, *extra_probes]
    probes += [t + d for t in rng.sample(times, min(len(times), 20)) for d in (-_EPS, 0.0, _EPS)]
    for m in (built, FrameManifest.from_dict(built.to_dict())):
        for ts in (sorted(probes), rng.sample(probes, len(probes)), sorted(probes)[::-1]):
            eager = [m.latest_frame_at(t) for t in ts]
            window = m.frames_at(ts)
            assert not hasattr(window, "__dict__")
            assert len(window) == len(eager)
            assert list(window) == eager
            assert list(reversed(window)) == eager[::-1]
            for k in range(-len(eager), len(eager)):
                assert window[k] == eager[k], k
            for k in (len(eager), -len(eager) - 1):
                with pytest.raises(IndexError):
                    window[k]
            part = data.draw(st.slices(len(eager)))
            assert type(window[part]) is type(window)
            assert len(window[part]) == len(eager[part])
            assert list(window[part]) == eager[part]


def test_frames_at_any_order():
    m = FrameManifest(case_id="c", fps_native=10.0,
                      frames=(Frame(0.5, "a"), Frame(1.0, "b"), Frame(1.0, "c"), Frame(2.0, "d")))
    ts = (0.0, 1.0, 2.5, 0.7, 1.0 - _EPS / 2, math.nan, 0.6)
    assert [f.image_path for f in m.frames_at(ts)] == ["a", "c", "d", "a", "c", "d", "a"]
    assert list(m.frames_at(ts)) == [m.latest_frame_at(t) for t in ts]


def test_frame_is_a_slotted_value():
    f = Frame(t=1.5, image_path="a.jpg")
    assert not hasattr(f, "__dict__")
    assert f == Frame(1.5, "a.jpg") and f != Frame(1.5, "b.jpg")
    assert hash(f) == hash(Frame(1.5, "a.jpg"))
    assert repr(f) == "Frame(t=1.5, image_path='a.jpg')"
    assert replace(f, t=2.0) == Frame(2.0, "a.jpg")
    with pytest.raises(FrozenInstanceError):
        f.t = 0.0


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


def test_manifest_keeps_only_its_columns():
    """Lookups build no memo: a manifest holds its columns and, once read, ``frames``."""
    m = grid_manifest(duration=1.0)
    decoded = FrameManifest.from_dict(m.to_dict())
    columns = {"case_id", "fps_native", "pre_overlaid", "_times", "_paths"}
    decoded.latest_frame_at(0.5)
    assert set(vars(decoded)) == columns
    assert decoded.frames == m.frames
    assert set(vars(decoded)) == set(vars(m)) == columns | {"frames"}


_GOOD_FRAMES = [{"t": 0.0, "image_path": "a.jpg"}, {"t": 0.5, "image_path": "b.jpg"}]


@pytest.mark.parametrize("frames,message", [
    ([_GOOD_FRAMES[0], 3], "manifest m1: frame 1 must be a JSON object, got int"),
    ([_GOOD_FRAMES[0], [0.5]], "manifest m1: frame 1 must be a JSON object, got list"),
    ([_GOOD_FRAMES[0], {"image_path": "b.jpg"}], "manifest m1: missing field 't' in frame 1"),
    ([_GOOD_FRAMES[0], {"t": "abc"}],
     "manifest m1: frame 1: could not convert string to float: 'abc'"),
    ([3, _GOOD_FRAMES[1]], "manifest m1: frame 0 must be a JSON object, got int"),
    ([{"t": "abc", "image_path": 5}, _GOOD_FRAMES[1]],
     "manifest m1: frame 0: could not convert string to float: 'abc'"),
    ([{"t": 0.0, "image_path": 5}, {"t": "abc"}],
     "manifest m1: frame 0: image_path must be a string, got 5"),
    ("ab", "manifest m1: frame 0 must be a JSON object, got str"),
    (5, "manifest m1: 'int' object is not iterable"),
    ([_GOOD_FRAMES[0], {"t": math.nan}],
     "manifest for m1 has a frame time that is not finite and non-negative"),
    ([{"t": -0.5}, _GOOD_FRAMES[1]],
     "manifest for m1 has a frame time that is not finite and non-negative"),
    ([_GOOD_FRAMES[1], _GOOD_FRAMES[0]], "manifest for m1 frames not time-ordered"),
    ([], "manifest for m1 has no frames"),
    ([*_GOOD_FRAMES, {"t": True}], "manifest m1: frame 2: t must be a JSON number, got True"),
    ([_GOOD_FRAMES[0], {"case_id": "f1", "t": True}],
     "manifest m1: frame 1: t must be a JSON number, got True"),
    ([_GOOD_FRAMES[0], {"case_id": "f1"}], "manifest m1: missing field 't' in frame 1"),
    ([*_GOOD_FRAMES, None], "manifest m1: frame 2 must be a JSON object, got NoneType"),
], ids=["frame_int", "frame_list", "missing_t", "string_t", "first_frame_int",
        "t_before_path", "first_bad_frame", "frames_string", "frames_int",
        "nan_t", "negative_t", "unordered", "empty", "third_frame", "frame_case_id",
        "frame_case_id_missing_t", "frame_null"])
def test_manifest_decode_error_text(frames, message):
    """A bad frame entry is named by its index from 0, never by a ``case_id``
    it holds: the first bad one, and within it the ``t`` before the
    ``image_path``."""
    with pytest.raises(SchemaError) as info:
        FrameManifest.from_dict({"case_id": "m1", "fps_native": 10.0, "frames": frames})
    assert str(info.value) == message


@pytest.mark.parametrize("path", [None, 5, ["a.jpg"]], ids=["null", "int", "list"])
def test_frame_rejects_non_string_image_path(path):
    """A path that is not a string never reaches a backend's ``open``."""
    frames = [_GOOD_FRAMES[0], {"t": 0.5, "image_path": path}]
    with pytest.raises(SchemaError) as info:
        FrameManifest.from_dict({"case_id": "m1", "fps_native": 10.0, "frames": frames})
    assert str(info.value) == f"manifest m1: frame 1: image_path must be a string, got {path!r}"


@pytest.mark.parametrize("case_id,message", [
    (None, "manifest case_id must be a string, got None"),
    (7, "manifest case_id must be a string, got 7"),
    ("", "manifest case_id must be non-empty"),
], ids=["null", "int", "empty"])
def test_manifest_rejects_non_string_or_empty_case_id(case_id, message):
    """A JSON null or number is not read as the case ``"None"`` or ``"7"``."""
    with pytest.raises(SchemaError) as info:
        FrameManifest.from_dict({"case_id": case_id, "fps_native": 10.0, "frames": _GOOD_FRAMES})
    assert str(info.value) == message
    with pytest.raises(SchemaError) as info:
        FrameManifest(case_id=case_id, fps_native=10.0, frames=(Frame(t=0.0),))
    assert str(info.value) == message


# Frame times the column decoder must convert, refuse or pass to the stream
# checks: NaN, both infinities, negatives, -0.0, ints, bools, strings, null,
# an int too large for a float, and the largest floats.
_ODD_TIMES = [math.nan, math.inf, -math.inf, -0.5, -0.0, 0, 7, True, False, "0.5", None,
              10 ** 400, 1.79e308, 1.7976931348623157e308]
_ODD_PATHS = ["", "é/b.jpg", None, 5, ["a.jpg"], "missing"]
_NOT_FRAMES = [3, [0.5], "ab", None, {"image_path": "b.jpg"}, {"case_id": "f1", "t": True}]


@st.composite
def _manifest_dicts(draw):
    times = sorted(draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.7e308, 1.79e308]),
                                           st.floats(0, 1e3)), min_size=1, max_size=5)))
    if draw(st.integers(0, 2)):  # first, middle or last
        i = draw(st.sampled_from([0, len(times) // 2, len(times) - 1]))
        times[i] = draw(st.sampled_from(_ODD_TIMES))
    if draw(st.integers(0, 5)) == 0:
        times = draw(st.permutations(times))
    frames = []
    for t in times:
        path = "a.jpg" if draw(st.integers(0, 7)) else draw(st.sampled_from(_ODD_PATHS))
        frames.append({"t": t} if path == "missing" else {"t": t, "image_path": path})
    if draw(st.integers(0, 9)) == 0:
        frames[draw(st.integers(0, len(frames) - 1))] = draw(st.sampled_from(_NOT_FRAMES))
    if draw(st.integers(0, 19)) == 0:
        frames = draw(st.sampled_from([[], "ab", 5, {"t": 0.0}, None]))
    d = {"case_id": "m1" if draw(st.integers(0, 3)) else draw(st.sampled_from(["", None, 7])),
         "frames": frames}
    if draw(st.booleans()):
        d["fps_native"] = draw(st.sampled_from([10.0, 10, math.nan, "10", True]))
    if draw(st.booleans()):
        d["pre_overlaid"] = draw(st.sampled_from([True, False, True, False, 1, "yes", None]))
    if draw(st.integers(0, 9)) == 0:  # a misspelled key, or one no manifest holds
        d[draw(st.sampled_from(["pre_overlayed", "fps", "Frames", "", "image_path"]))] = False
    return d


def _frames(*times):
    return {"case_id": "m1", "frames": [{"t": t, "image_path": "a.jpg"} for t in times]}


def _decoded(decode, d):
    """The decoded values, with their types, or the error's class and text."""
    try:
        return repr(decode(d))
    except Exception as exc:
        return type(exc), str(exc)


def _manifest_values(d):
    m = FrameManifest.from_dict(d)
    return m.case_id, m.fps_native, m._times, m._paths, m.pre_overlaid


@settings(max_examples=200)
@given(_manifest_dicts())
# Each stream check failed alone; and accepted edge cases.
@example(_frames(0.0, math.nan, 1.0))
@example(_frames(math.nan, 1.0))
@example(_frames(0.0, math.nan))
@example(_frames(-0.5, 1.0))
@example(_frames(-math.inf, 1.0))
@example(_frames(0.0, math.inf))
@example(_frames(1.0, 0.5))
@example({**_frames(0.0, 1.0), "case_id": ""})
@example({**_frames(0.0, 1.0), "pre_overlaid": 1})
@example(_frames(-0.0, 0.0, 0.0))
@example(_frames(1.79e308, 1.7976931348623157e308))  # finite times, a sum of inf
@example(_frames(0.25))
@example(_frames(0, True))
def test_manifest_decode_matches_reference(d):
    """The column decoder takes exactly the manifests the frame-by-frame
    decoder takes, with the same values, and fails on the rest with the same
    error."""
    assert _decoded(_manifest_values, d) == _decoded(reference_manifest_decode, d)


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


_M1 = {"case_id": "m1", "fps_native": 10.0, "frames": _GOOD_FRAMES}


@pytest.mark.parametrize("decode,encoded,message", [
    (FrameManifest.from_dict, {**_M1, "fps_native": "10"},
     "manifest m1: fps_native must be a JSON number, got '10'"),
    (FrameManifest.from_dict, {**_M1, "fps_native": True},
     "manifest m1: fps_native must be a JSON number, got True"),
    (FrameManifest.from_dict, {**_M1, "frames": [{"t": 0.0}, {"t": True}]},
     "manifest m1: frame 1: t must be a JSON number, got True"),
    (FrameManifest.from_dict, {**_M1, "frames": [{"t": "0.5"}]},
     "manifest m1: frame 0: t must be a JSON number, got '0.5'"),
    (FrameManifest.from_dict, {**_M1, "frames": [{"t": "0.5"}, {"t": True}]},
     "manifest m1: frame 0: t must be a JSON number, got '0.5'"),
    (event_from_dict, {"kind": "frame_sampled", "t": "1.5", "rate": 1.0},
     "t must be a JSON number, got '1.5'"),
    (event_from_dict, {"kind": "frame_sampled", "t": 1.5, "rate": True},
     "rate must be a JSON number, got True"),
    (event_from_dict, {"kind": "slow_dispatched", "trigger_t": 1.0,
                       "window_frame_times": [0.5, "1.0"]},
     "window_frame_times must be a JSON number, got '1.0'"),
    (DecisionTrace.from_dict, {**_TRACE_JSON, "events": [{"kind": "override", "t": "1.5"}]},
     "trace c0: t must be a JSON number, got '1.5'"),
    (DecisionTrace.from_dict, {**_TRACE_JSON, "summary": {"alert_stream_time": "soon"}},
     "trace c0: could not convert string to float: 'soon'"),
    (DecisionTrace.from_dict, {**_TRACE_JSON, "summary": {"alert_stream_time": True}},
     "trace c0: alert_stream_time must be a JSON number, got True"),
    (DecisionTrace.from_dict, {**_TRACE_JSON, "summary": {"end_to_end_latency": "0.1"}},
     "trace c0: end_to_end_latency must be a JSON number, got '0.1'"),
], ids=["fps_string", "fps_true", "frame_time_true", "frame_time_string", "frame_string",
        "event_t_string", "event_rate_true", "window_time_string", "trace_event_string",
        "alert_time_word", "alert_time_true", "latency_string"])
def test_manifest_and_trace_decoders_take_json_numbers_only(decode, encoded, message):
    """Manifests, events and trace summaries read numbers as the records do:
    a string or a boolean is a SchemaError, not a float."""
    with pytest.raises(SchemaError) as info:
        decode(encoded)
    assert str(info.value) == message


def test_manifest_and_trace_decoders_convert_json_integers():
    m = FrameManifest.from_dict({**_M1, "fps_native": 10, "frames": [{"t": 0}, {"t": 1}]})
    trace = DecisionTrace.from_dict({**_TRACE_JSON, "summary": {
        "end_to_end_latency": 0, "alert_stream_time": 2}})
    values = [m.fps_native, *(f.t for f in m.frames), trace.end_to_end_latency,
              trace.alert_stream_time]
    assert values == [10.0, 0.0, 1.0, 0.0, 2.0]
    assert all(type(v) is float for v in values)
    assert event_from_dict({"kind": "slow_dispatched", "trigger_t": 1,
                            "window_frame_times": [0, 1]}).window_frame_times == (0.0, 1.0)


def test_slow_verdict_cannot_precede_trigger():
    with pytest.raises(SchemaError):
        SlowVerdict(trigger_t=2.0, arrival_t=1.0, verdict=1)


def test_trace_roundtrip_and_decision():
    trace = DecisionTrace(case_id="c", events=tuple(EVENTS[:6]),
                          end_to_end_latency=0.05, alert_stream_time=0.4,
                          alert_source=AlertSource.FAST)
    assert DecisionTrace.from_dict(trace.to_dict()) == trace
    assert trace.alert_stream_time is not None

    quiet = DecisionTrace(case_id="c", events=())
    assert quiet.alert_stream_time is None
    assert DecisionTrace.from_dict(quiet.to_dict()) == quiet


@pytest.mark.parametrize("encoded,message", [
    ({"case_id": None, "events": []}, "trace None: case_id must be a string, got None"),
    ({"case_id": 7, "events": []}, "trace 7: case_id must be a string, got 7"),
    ({"case_id": "", "events": []}, "trace : case_id must be non-empty"),
    ({"events": []}, "missing field 'case_id' in trace"),
    ({"case_id": "c"}, "missing field 'events' in trace c"),
    ({"case_id": "c", "events": [{"kind": "override"}]}, "missing field 't' in trace c"),
    ({"case_id": "c", "events": [{"kind": "nope"}]}, "trace c: unknown event kind 'nope'"),
    ({"case_id": "c", "events": [], "summary": {"alert_source": "x"}},
     "trace c: 'x' is not a valid AlertSource"),
    ([1], "trace must be a JSON object, got list"),
    ({"case_id": "c", "events": [], "sumary": {}},
     "trace c: unknown key 'sumary' (known: case_id, events, summary)"),
    ({"case_id": "c", "events": [], "summary": {"abortd": True}},
     "trace c: unknown key 'abortd' in summary (known: end_to_end_latency, alert_stream_time, "
     "alert_source, aborted, physical_stop_time)"),
    ({"case_id": "c", "events": [{"kind": "override", "t": 1.0, "source": "fast"}]},
     "trace c: unknown key 'source' in event 'override' (known: kind, t)"),
    ({"case_id": "c", "events": [{"kind": "override", "time": 1.0}]},
     "missing field 't' in trace c"),
    ({"case_id": "c", "events": [{"kind": "alert", "t": 1.0, "source": "fast"}]},
     "missing field 't_alert' in trace c"),
    ({"case_id": "c", "events": [], "summary": ["aborted"]},
     "trace c: summary must be a JSON object, got list"),
], ids=["case_id_null", "case_id_int", "case_id_empty", "missing_case_id", "missing_events",
        "event_missing_field", "unknown_kind", "bad_source", "not_object", "unknown_key",
        "unknown_summary_key", "unknown_event_key", "renamed_event_field", "event_key_for_a_field",
        "summary_not_object"])
def test_trace_decode_error_text(encoded, message):
    """Every malformed trace is one SchemaError that names the trace."""
    with pytest.raises(SchemaError) as info:
        DecisionTrace.from_dict(encoded)
    assert str(info.value) == message


@pytest.mark.parametrize("event", EVENTS, ids=[ev.kind for ev in EVENTS])
def test_event_with_an_extra_key_is_refused(event):
    encoded = {**event_to_dict(event), "note": ""}
    with pytest.raises(SchemaError) as info:
        event_from_dict(encoded)
    assert str(info.value).startswith(f"unknown key 'note' in event {event.kind!r} (known: kind, ")


def test_trace_to_prediction():
    trace = DecisionTrace(case_id="c", events=(), alert_stream_time=2.1,
                          alert_source=AlertSource.FAST, end_to_end_latency=0.15)
    pred = trace.to_prediction()
    assert pred.verdict == "hazard" and pred.timestamp == 2.1
    assert DecisionTrace(case_id="c", events=()).to_prediction().verdict == "safe"


# Timeline (a) of the golden decision timelines, exactly as written to --out:
# the codec's key order and number formatting are part of the file format.
_GOLDEN_A_EVENTS = (
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
)
GOLDEN_A_JSON = _GOLDEN_A_EVENTS + (
    '"summary": {"end_to_end_latency": 0.15000000000000008, "alert_stream_time": 2.1, '
    '"alert_source": "fast", "aborted": false}}'
)
# The same trace as written while the summary still carried
# "physical_stop_time", which repeated "alert_stream_time" (plus an
# actuation lag that defaulted to 0).
OLD_GOLDEN_A_JSON = _GOLDEN_A_EVENTS + (
    '"summary": {"end_to_end_latency": 0.15000000000000008, "alert_stream_time": 2.1, '
    '"alert_source": "fast", "physical_stop_time": 2.1, "aborted": false}}'
)


def _golden_a_trace():
    manifest = grid_manifest(
        times=[0.0, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.1, 2.4, 3.0, 5.0])
    fast = fast_script([(0.0, 1.0, "green"), (1.0, 2.1, "yellow"),
                        (2.1, 99.0, "red")])
    slow = slow_script([(0.9, 1.1, 0, 5.0)])
    return run_case(manifest, fast, slow, CoordinatorConfig())


def test_golden_trace_bytes():
    assert json.dumps(_golden_a_trace().to_dict()) == GOLDEN_A_JSON


def test_old_trace_with_physical_stop_time_loads():
    """A trace file written before the key was dropped decodes to today's
    trace, and re-encodes without the key."""
    old = DecisionTrace.from_dict(json.loads(OLD_GOLDEN_A_JSON))
    assert old == _golden_a_trace()
    assert json.dumps(old.to_dict()) == GOLDEN_A_JSON
