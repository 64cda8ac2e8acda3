"""The slotted records' ``__init__`` (the read-side records, ``Frame`` and the
trace events), which stores each field through its slot descriptor, against
what ``dataclass`` generates: ``object.__new__``, then ``object.__setattr__``
per field, then ``__post_init__``; and their ``_unchecked``, which builds
through a mutable twin of the slots and then takes the record's class."""

import copy
import gc
import inspect
import json
import math
import pickle
from dataclasses import MISSING, FrozenInstanceError, InitVar, dataclass, field, fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from streamguard.annotations import load_annotations
from streamguard.cli import _load_predictions
from streamguard.model import (
    Alert,
    AlertSource,
    CaseAnnotation,
    FastState,
    Frame,
    FrameSampled,
    KeyFrames,
    Override,
    PredictionRecord,
    RateChange,
    SafetyState,
    SlowDispatched,
    SlowVerdict,
    _slot_init,
)

from helpers import make_ann

# ``str(inspect.signature(cls))`` with the generated ``__init__``, the same on
# Python 3.10, 3.11, 3.12 and 3.13.
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

# Records whose fields start each drawn call, a few of which are then replaced
# from ``_JUNK`` so that the checks in ``__post_init__`` reject some calls.
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
_JUNK = [None, -1.0, math.nan, math.inf, 0, 7, True, "", "x", "safe", "L1", [], {},
         ("kettle",), ("Kettle",), KeyFrames(0.0, 0.2, 0.0, 0.2, 9.0)]


def _reference(cls, *args, **kwargs):
    """What the generated ``__init__`` does with arguments that bind."""
    names = [f.name for f in fields(cls)]
    values = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
    values.update(zip(names, args))
    values.update(kwargs)
    self = object.__new__(cls)
    for name in names:
        object.__setattr__(self, name, values[name])
    if hasattr(cls, "__post_init__"):
        self.__post_init__()
    return self


def _outcome(build):
    """The record ``build()`` returns, or (exception class, message)."""
    try:
        return build()
    except Exception as exc:  # any class: a TypeError must match too
        return type(exc), str(exc)


@st.composite
def _calls(draw):
    """(cls, args, kwargs, the object each field should hold)."""
    cls = draw(st.sampled_from(CLASSES))
    base = draw(st.sampled_from(_GOOD[cls]))
    values = {f.name: getattr(base, f.name) for f in fields(cls)}
    for _ in range(draw(st.integers(0, 2))):
        values[draw(st.sampled_from(list(values)))] = draw(st.sampled_from(_JUNK))
    # Any field with a default may be left out; positional ones come first.
    given_ = [f.name for f in fields(cls) if f.default is MISSING or draw(st.booleans())]
    prefix = 0
    while prefix < len(given_) and given_[prefix] == fields(cls)[prefix].name:
        prefix += 1
    n_pos = draw(st.integers(0, prefix))
    args = [values[n] for n in given_[:n_pos]]
    kwargs = {n: values[n] for n in draw(st.permutations(given_[n_pos:]))}
    expected = {f.name: values[f.name] if f.name in given_ else f.default for f in fields(cls)}
    return cls, args, kwargs, expected


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_signature_is_the_generated_one(cls):
    assert str(inspect.signature(cls)) == SIGNATURES[cls]
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"


@settings(max_examples=1000)
@given(_calls())
def test_init_matches_reference(call):
    """Positional, keyword and default calls: an equal record holding the very
    objects passed, or the same exception class and message."""
    cls, args, kwargs, expected = call
    got = _outcome(lambda: cls(*args, **kwargs))
    want = _outcome(lambda: _reference(cls, *args, **kwargs))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert type(got) is cls and got == want
        for name, value in expected.items():
            assert getattr(got, name) is value


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


def _factory():
    @dataclass(frozen=True, slots=True)
    class C:
        x: list = field(default_factory=list)
    return C


def _not_init():
    @dataclass(frozen=True, slots=True)
    class C:
        x: int = field(default=0, init=False)
    return C


def _kw_only():
    @dataclass(frozen=True, slots=True)
    class C:
        x: int = field(kw_only=True)
    return C


def _init_var():
    @dataclass(frozen=True, slots=True)
    class C:
        x: int
        y: InitVar[int] = 0

        def __post_init__(self, y):
            pass
    return C


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


_CANNOT_REPRODUCE = "cannot reproduce __init__"


@pytest.mark.parametrize("make,reason", [
    (_factory, _CANNOT_REPRODUCE), (_not_init, _CANNOT_REPRODUCE), (_kw_only, _CANNOT_REPRODUCE),
    (_init_var, _CANNOT_REPRODUCE), (_no_slots, "every field must be a slot"),
    (_inherited_slots, "a slotted record must derive from object alone"),
    (_slots_not_the_layout, "cannot build through a twin of its slots"),
], ids=["default_factory", "init_false", "kw_only", "init_var", "no_slots", "inherited_slots",
        "slots_not_the_layout"])
def test_slot_init_refuses_what_it_cannot_reproduce(make, reason):
    with pytest.raises(TypeError, match=f"^C: {reason}"):
        _slot_init(make())
