"""The slotted records (the read-side records, ``Frame`` and the trace
events): the ``__init__`` that ``dataclass`` generates, and ``_unchecked``,
which builds through a mutable twin of the slots and then takes the record's
class, as every decoder, frame lookup and ``run_case`` builds them."""

import copy
import gc
import inspect
import json
import pickle
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields, replace

import pytest

from streamguard.annotations import load_annotations
from streamguard.cli import _load_predictions
from streamguard.coordinator import CoordinatorConfig, run_case
from streamguard.model import (
    Alert,
    AlertSource,
    CaseAnnotation,
    DecisionTrace,
    FastState,
    Frame,
    FrameManifest,
    FrameSampled,
    KeyFrames,
    Override,
    PredictionRecord,
    RateChange,
    SafetyState,
    SlowDispatched,
    SlowVerdict,
    _slot_twin,
)

from helpers import fast_script, grid_manifest, make_ann, slow_script

# ``str(inspect.signature(cls))``: the ``__init__`` that ``dataclass``
# generates, the same on Python 3.10, 3.11, 3.12 and 3.13.
SIGNATURES = {
    Frame: "(t: 'float', image_path: 'str' = '') -> None",
    KeyFrames: "(intent_onset: 'float', pnr: 'float', intervention_deadline: 'float', "
               "impact: 'float', action_end: 'float') -> None",
    CaseAnnotation: "(case_id: 'str', location: 'str', danger_category: 'str', "
                    "severity: 'str', difficulty: 'str', key_frames: 'KeyFrames', "
                    "key_entities: 'tuple[str, ...]', duration: 'float', "
                    "is_valid: 'bool' = True) -> None",
    PredictionRecord: "(case_id: 'str', verdict: 'str', timestamp: 'Optional[float]' = None, "
                      "severity_claim: 'Optional[str]' = None, reasoning_text: 'str' = '', "
                      "raw_output: 'str' = '', parse_status: 'str' = 'ok', "
                      "parse_detail: 'str' = '') -> None",
    FrameSampled: "(t: 'float', rate: 'float') -> None",
    FastState: "(t: 'float', state: 'SafetyState', fast_latency: 'float') -> None",
    SlowDispatched: "(trigger_t: 'float', window_frame_times: 'tuple[float, ...]') -> None",
    SlowVerdict: "(trigger_t: 'float', arrival_t: 'float', verdict: 'int') -> None",
    Override: "(t: 'float') -> None",
    Alert: "(t_alert: 'float', source: 'AlertSource') -> None",
    RateChange: "(t: 'float', new_rate: 'float') -> None",
}
EVENTS = [FrameSampled, FastState, SlowDispatched, SlowVerdict, Override, Alert, RateChange]
CLASSES = list(SIGNATURES)

# Two records of each class, built through the constructor.
_GOOD = {
    Frame: [Frame(0.0), Frame(1.5, "a.jpg")],
    KeyFrames: [KeyFrames(3.6, 4.0, 3.8, 4.5, 5.0), KeyFrames(0.0, 0.2, 0.0, 0.2, 0.2)],
    CaseAnnotation: [make_ann(), make_ann(difficulty="D3", entities=(), is_valid=False)],
    PredictionRecord: [PredictionRecord("c0", "safe"),
                       PredictionRecord("c1", "hazard", 2.5, "L2", "a kettle", "raw", "ok", "")],
    FrameSampled: [FrameSampled(0.0, 1.0), FrameSampled(1.2, 5.0)],
    FastState: [FastState(0.0, SafetyState.GREEN, 0.05), FastState(1.2, SafetyState.RED, 0.0)],
    SlowDispatched: [SlowDispatched(1.0, (0.6, 0.8, 1.0)), SlowDispatched(0.0, (0.0,))],
    SlowVerdict: [SlowVerdict(1.0, 3.2, 1), SlowVerdict(0.0, 0.0, 0)],
    Override: [Override(0.4), Override(2.0)],
    Alert: [Alert(0.4, AlertSource.FAST), Alert(3.2, AlertSource.SLOW)],
    RateChange: [RateChange(1.0, 5.0), RateChange(2.0, 1.0)],
}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_signature_is_the_generated_one(cls):
    assert str(inspect.signature(cls)) == SIGNATURES[cls]
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_bad_arguments_are_type_errors(cls):
    """Missing, extra, unknown and duplicate arguments."""
    values = [getattr(_GOOD[cls][0], f.name) for f in fields(cls)]
    n_required = sum(f.default is MISSING for f in fields(cls))
    first = fields(cls)[0].name
    for args, kwargs in [(values[:n_required - 1], {}), ((*values, values[0]), {}),
                         (values, {"bogus": 1}), (values, {first: values[0]})]:
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) "):
            cls(*args, **kwargs)


def _unchecked_copy(record):
    """``record`` built again through its class's ``_unchecked``."""
    return type(record)._unchecked(*[getattr(record, f.name) for f in fields(record)])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_records_stay_frozen_and_round_trip(cls):
    """Both ways of building a record: the constructor and ``_unchecked``."""
    for record in [*_GOOD[cls], *map(_unchecked_copy, _GOOD[cls])]:
        for f in fields(cls):
            with pytest.raises(FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))
            with pytest.raises(FrozenInstanceError):
                delattr(record, f.name)
        for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), replace(record)):
            assert type(copied) is cls and copied == record
        other = _GOOD[cls][1 - _GOOD[cls].index(record)]
        changed = {f.name: getattr(other, f.name) for f in fields(cls)}
        assert replace(record, **changed) == other


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_unchecked_builds_the_record_the_constructor_builds(cls):
    """A record built through the twin is exactly its class, holds the very
    objects passed, and is equal, hashed and shown as the constructor's
    record is (``test_records_stay_frozen_and_round_trip`` freezes and
    copies it)."""
    for record in _GOOD[cls]:
        built = _unchecked_copy(record)
        assert type(built) is cls and built.__class__ is cls
        for f in fields(cls):
            assert getattr(built, f.name) is getattr(record, f.name)
        assert built == record and hash(built) == hash(record) and repr(built) == repr(record)
        assert not hasattr(built, "__dict__")
        assert gc.is_tracked(built) == gc.is_tracked(record)


def test_decoded_records_are_exactly_their_class(tmp_path):
    """What the bulk loaders return, on both paths of the annotation decode
    (an int ``duration`` takes the checked one), and every prediction."""
    cases = [make_ann(case_id="a").to_dict(), {**make_ann(case_id="b").to_dict(), "duration": 6}]
    (tmp_path / "anns.json").write_text(json.dumps(cases), encoding="utf-8")
    preds = [{"case_id": "a", "verdict": "safe"},
             {"case_id": "b", "verdict": "hazard", "timestamp": 4, "severity_claim": "L2"}]
    (tmp_path / "preds.jsonl").write_text("\n".join(map(json.dumps, preds)), encoding="utf-8")
    anns = load_annotations(str(tmp_path / "anns.json"))
    assert list(anns) == ["a", "b"]
    for ann in anns.values():
        assert type(ann) is CaseAnnotation and type(ann.key_frames) is KeyFrames
        assert ann == make_ann(case_id=ann.case_id)
    records = _load_predictions(str(tmp_path / "preds.jsonl"))
    assert [type(r) for r in records] == [PredictionRecord, PredictionRecord]
    assert records == [PredictionRecord("a", "safe"),
                       PredictionRecord("b", "hazard", 4.0, "L2")]


def _as_constructed(record) -> bool:
    """``record`` is exactly one of the record classes, no twin of one, and
    equal, hashed and shown as the record its constructor builds from the
    same field values."""
    cls = type(record)
    built = cls(*[getattr(record, f.name) for f in fields(cls)])
    return (cls in CLASSES and record.__class__ is cls and record == built
            and hash(record) == hash(built) and repr(record) == repr(built))


def _traces() -> list:
    """Two runs that emit every event kind between them: Green, then Yellow
    with a slow query in flight, then Red, which overrides it; and Yellow
    until a slow DANGER verdict alerts."""
    escalation = run_case(
        grid_manifest(times=[0.0, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.1, 2.4, 3.0, 5.0]),
        fast_script([(0.0, 1.0, "green"), (1.0, 2.1, "yellow"), (2.1, 99.0, "red")]),
        slow_script([(0.9, 1.1, 0, 5.0)]), CoordinatorConfig())
    danger = run_case(grid_manifest(duration=6.0), fast_script([(0.0, 99.0, "yellow")]),
                      slow_script([(0.0, 0.1, 1, 1.3)]), CoordinatorConfig())
    return [escalation, danger]


def test_run_and_decoded_events_are_exactly_their_class():
    """Every event ``run_case`` emits, and every event ``DecisionTrace.from_dict``
    decodes, is the event its constructor builds."""
    traces = _traces()
    assert {type(ev) for t in traces for ev in t.events} == set(EVENTS)
    assert {t.events[-1] for t in traces} == {Alert(2.1, AlertSource.FAST),
                                              Alert(1.3, AlertSource.SLOW)}
    for trace in traces:
        decoded = DecisionTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
        assert decoded == trace
        for ev in (*trace.events, *decoded.events):
            assert _as_constructed(ev), ev


def test_looked_up_frames_are_exactly_frames():
    """``latest_frame_at``, ``frames_at`` and a decoded manifest's ``frames``,
    of a manifest built from frames and of the same one decoded."""
    built = grid_manifest(duration=2.0)
    decoded = FrameManifest.from_dict(built.to_dict())
    probes = [-1.0, 0.0, 0.05, 0.1, 1.37, 2.0, 9.0]
    for m in (built, decoded):
        frames = [*map(m.latest_frame_at, probes), *m.frames_at(probes), *m.frames]
        assert all(_as_constructed(f) for f in frames)
        assert list(m.frames) == list(built.frames)
        assert [f.t for f in m.frames_at(probes)] == [0.0, 0.0, 0.0, 0.1, 1.3, 2.0, 2.0]


@pytest.mark.parametrize("cls", EVENTS, ids=lambda c: c.__name__)
def test_events_are_slotted_and_kind_is_no_field(cls):
    """``kind`` names the event on the wire, from the class: no instance holds
    it, and ``==``, ``hash`` and ``replace`` do not see it."""
    assert "kind" in vars(cls) and isinstance(cls.kind, str)
    assert "kind" not in {f.name for f in fields(cls)}
    for event in _GOOD[cls]:
        assert not hasattr(event, "__dict__")
        assert event.kind == cls.kind
        assert hash(event) == hash(replace(event))


def _no_slots():
    @dataclass(frozen=True)
    class C:
        x: int = 0
    return C


def _inherited_slots():
    class Base:
        __slots__ = ("extra",)

    @dataclass(frozen=True, slots=True)
    class C(Base):
        x: int = 0
    return C


def _slots_not_the_layout():
    """A class whose ``__slots__`` no longer names its layout: its twin
    cannot be swapped for it."""
    @dataclass(frozen=True, slots=True)
    class C:
        x: int = 0
    C.__slots__ = ("x", "y")
    return C


@pytest.mark.parametrize("make,reason", [
    (_no_slots, "every field must be a slot"),
    (_inherited_slots, "a slotted record must derive from object alone"),
    (_slots_not_the_layout, "cannot build through a twin of its slots"),
], ids=["no_slots", "inherited_slots", "slots_not_the_layout"])
def test_slot_init_refuses_what_it_cannot_reproduce(make, reason):
    """The three classes whose twin ``_slot_twin`` cannot build."""
    with pytest.raises(TypeError, match=f"^C: {reason}"):
        _slot_twin(make())


def test_slot_twin_keeps_the_dataclass_init():
    """The decorator adds ``_unchecked`` and replaces nothing."""
    @dataclass(frozen=True, slots=True)
    class C:
        x: int
        y: str = ""

    before = dict(vars(C))
    assert _slot_twin(C) is C
    assert set(vars(C)) - set(before) == {"_unchecked"}
    assert all(vars(C)[name] is value for name, value in before.items())
    assert C._unchecked(1, "a") == C(1, "a")
