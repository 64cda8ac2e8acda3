"""Annotation loading and temporal phase classification."""

import gc
import json

import pytest
from hypothesis import given, strategies as st

from streamguard.annotations import (
    DuplicateCaseError,
    IoError,
    classify_phase,
    load_annotations,
)
from streamguard.cli import CliError, _load_predictions
from streamguard.model import (
    _SHARED,
    DANGER_CATEGORIES,
    DIFFICULTY_LEVELS,
    LOCATIONS,
    SEVERITY_CLAIMS,
    SEVERITY_LEVELS,
    CaseAnnotation,
    Phase,
    PredictionRecord,
    SchemaError,
)

from helpers import make_ann


def _write(tmp_path, payload, name="anns.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_load_ok(tmp_path):
    path = _write(tmp_path, [make_ann(case_id="a").to_dict(),
                             make_ann(case_id="b").to_dict()])
    anns = load_annotations(path)
    assert len(anns) == 2
    assert "a" in anns and anns["b"].case_id == "b"
    assert sorted(a.case_id for a in anns) == ["a", "b"]


def test_load_missing_file():
    with pytest.raises(IoError):
        load_annotations("/nonexistent/anns.json")


def test_load_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_annotations(str(path))


def test_load_rejects_non_array(tmp_path):
    path = _write(tmp_path, {"case_id": "a"})
    with pytest.raises(SchemaError):
        load_annotations(path)


def test_load_rejects_duplicates(tmp_path):
    entry = make_ann(case_id="a").to_dict()
    path = _write(tmp_path, [entry, entry])
    with pytest.raises(DuplicateCaseError):
        load_annotations(path)


def test_load_synthesizes_missing_deadline(tmp_path):
    entry = make_ann(case_id="a").to_dict()
    del entry["key_frames"]["intervention_deadline"]
    anns = load_annotations(_write(tmp_path, [entry]))
    assert anns["a"].key_frames.intervention_deadline == pytest.approx(3.8)


@pytest.mark.parametrize("fails", [False, True], ids=["ok", "raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
def test_loaders_pause_gc_and_restore_it(tmp_path, monkeypatch, enabled, fails):
    """Both bulk decoders run with the cyclic GC off and leave it as they
    found it, also when a later record fails to decode."""
    good = make_ann(case_id="a").to_dict()
    anns = _write(tmp_path, [good, {**good, "case_id": "b", "location": "garage" if fails
                                    else good["location"]}])
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"case_id": "a", "verdict": "safe"}) + "\n"
                     + json.dumps({"case_id": "b", "verdict": "maybe" if fails else "safe"}),
                     encoding="utf-8")
    seen = []

    def spy(decode):
        def from_dict(d):
            seen.append(gc.isenabled())
            return decode(d)
        return from_dict

    for cls in (CaseAnnotation, PredictionRecord):
        monkeypatch.setattr(cls, "from_dict", spy(cls.from_dict))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for load, path, error in ((load_annotations, anns, SchemaError),
                                  (_load_predictions, str(preds), CliError)):
            if fails:
                with pytest.raises(error):
                    load(path)
            else:
                assert len(load(path)) == 2
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * 4


# --- closed-set strings shared by decoded records ----------------------------

def _same(constants, v):
    """True when ``v`` is the module's own object for its value, not a copy."""
    return v is constants[constants.index(v)]


def _ann_entries():
    return [make_ann(case_id=f"a{i}", location=LOCATIONS[i % len(LOCATIONS)],
                     category=DANGER_CATEGORIES[i % len(DANGER_CATEGORIES)],
                     severity=SEVERITY_LEVELS[i % len(SEVERITY_LEVELS)],
                     difficulty=DIFFICULTY_LEVELS[i % len(DIFFICULTY_LEVELS)]).to_dict()
            for i in range(12)]


def _pred_entries():
    return [PredictionRecord(case_id=f"a{i}", verdict=("safe", "hazard")[i % 2],
                             timestamp=(None, 1.5)[i % 2],
                             severity_claim=(None, *SEVERITY_CLAIMS)[i % 6],
                             parse_status=("ok", "format_error")[i % 4 == 3]).to_dict()
            for i in range(12)]


def test_decoded_annotations_share_the_closed_set_strings(tmp_path):
    entries = _ann_entries()
    anns = load_annotations(_write(tmp_path, entries))
    for ann in anns:
        assert _same(LOCATIONS, ann.location)
        assert _same(DANGER_CATEGORIES, ann.danger_category)
        assert _same(SEVERITY_LEVELS, ann.severity)
        assert _same(DIFFICULTY_LEVELS, ann.difficulty)
    assert [ann.to_dict() for ann in anns] == entries


def test_decoded_predictions_share_the_closed_set_strings(tmp_path):
    entries = _pred_entries()
    path = tmp_path / "preds.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8")
    preds = _load_predictions(str(path))
    for p in preds:
        assert p.verdict is _SHARED[p.verdict] and p.parse_status is _SHARED[p.parse_status]
        assert p.severity_claim is None or _same(SEVERITY_CLAIMS, p.severity_claim)
    # One object per distinct value across all records.
    for field in ("verdict", "severity_claim", "parse_status"):
        values = [getattr(p, field) for p in preds]
        assert len({id(v) for v in values}) == len(set(values))
    assert [p.to_dict() for p in preds] == entries


_BAD_VALUES = [("unknown", "garage"), ("non_string", 3), ("unhashable", ["balcony"])]


@pytest.mark.parametrize("field", ["location", "danger_category", "severity", "difficulty"])
@pytest.mark.parametrize("kind,value", _BAD_VALUES, ids=[k for k, _ in _BAD_VALUES])
def test_annotation_closed_set_rejects_a_bad_value(tmp_path, field, kind, value):
    entry = {**_ann_entries()[0], field: value}
    with pytest.raises(SchemaError) as info:
        load_annotations(_write(tmp_path, [entry]))
    assert str(info.value) == f"unknown {field} {value!r} for case a0"


_PRED_ERRORS = {
    "verdict": "verdict must be 'safe' or 'hazard', got {!r}",
    "severity_claim": "unknown severity_claim {!r}",
    "parse_status": "unknown parse_status {!r}",
}


@pytest.mark.parametrize("field", list(_PRED_ERRORS))
@pytest.mark.parametrize("kind,value", _BAD_VALUES, ids=[k for k, _ in _BAD_VALUES])
def test_prediction_closed_set_rejects_a_bad_value(tmp_path, field, kind, value):
    message = "prediction a0: " + _PRED_ERRORS[field].format(value)
    entry = {**_pred_entries()[0], field: value}
    with pytest.raises(SchemaError) as info:
        PredictionRecord.from_dict(entry)
    assert str(info.value) == message
    path = tmp_path / "preds.jsonl"
    path.write_text(json.dumps(entry) + "\n", encoding="utf-8")
    with pytest.raises(CliError) as info:
        _load_predictions(str(path))
    assert str(info.value) == f"parse_error: {path}: {message}"


# --- classify_phase ----------------------------------------------------------

ANN = make_ann()  # intent 3.6, deadline 3.8, pnr 4.0, impact 4.5


@pytest.mark.parametrize("t,phase", [
    (0.0, Phase.PREMATURE),
    (3.59, Phase.PREMATURE),
    (3.6, Phase.OPTIMAL),       # intent onset is inclusive
    (3.7, Phase.OPTIMAL),
    (3.8, Phase.OPTIMAL),       # deadline is inclusive
    (3.81, Phase.SUBOPTIMAL),
    (4.0, Phase.SUBOPTIMAL),    # pnr is inclusive
    (4.01, Phase.IRREVERSIBLE),
    (4.5, Phase.IRREVERSIBLE),  # impact is inclusive
    (4.51, Phase.MISSED),
    (None, Phase.MISSED),
])
def test_phase_boundaries(t, phase):
    assert classify_phase(t, ANN) == phase


@given(st.one_of(st.none(), st.floats(0, 10)))
def test_phase_exhaustive(t):
    assert classify_phase(t, ANN) in set(Phase)


@given(st.floats(0, 10), st.floats(0, 10))
def test_phase_monotone_in_time(t1, t2):
    """Later predictions never land in an earlier lifecycle phase."""
    order = [Phase.PREMATURE, Phase.OPTIMAL, Phase.SUBOPTIMAL,
             Phase.IRREVERSIBLE, Phase.MISSED]
    lo, hi = sorted([t1, t2])
    assert order.index(classify_phase(lo, ANN)) <= order.index(classify_phase(hi, ANN))


@given(st.floats(0, 10))
def test_phase_matches_warning_window(t):
    """Optimal/Suboptimal/Irreversible together are exactly [intent, impact]."""
    kf = ANN.key_frames
    in_window = kf.intent_onset <= t <= kf.impact
    phase = classify_phase(t, ANN)
    assert (phase in (Phase.OPTIMAL, Phase.SUBOPTIMAL, Phase.IRREVERSIBLE)) == in_window
