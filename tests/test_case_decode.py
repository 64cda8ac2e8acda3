"""``CaseAnnotation.from_dict`` builds a well-formed case straight through its
slots; every draw here, well-formed or mutated at a boundary, must decode as
the constructor path (``helpers.reference_case_decode``) does.  A file of
such draws must load as a plain ``json.loads`` and ``from_dict`` per element
load it, though ``load_annotations`` builds each case inside the JSON scan."""

import json
import math
from contextlib import contextmanager

from hypothesis import HealthCheck, example, given, settings, strategies as st

from streamguard.annotations import DuplicateCaseError, load_annotations
from streamguard.model import (
    _EPS,
    _SHARED,
    DANGER_CATEGORIES,
    DEADLINE_OFFSET,
    DEADLINE_TOLERANCE,
    DIFFICULTY_LEVELS,
    LOCATIONS,
    JSON_ERRORS,
    SEVERITY_LEVELS,
    CaseAnnotation,
    KeyFrames,
    SchemaError,
)

from helpers import reference_case_decode

CLOSED = ("location", "danger_category", "severity", "difficulty")
# In lifecycle order, each at most the next plus _EPS; the case's duration last.
CHAIN = ("intent_onset", "intervention_deadline", "pnr", "impact", "action_end", "duration")
WRONG_SET = ["C1", "L1", "D3", "none", "bedroom", "safe", "garage", "", "Balcony"]


@contextmanager
def _constructor_path_refused():
    """Any ``__post_init__`` call fails: the case was not built directly."""
    saved = CaseAnnotation.__post_init__, KeyFrames.__post_init__

    def refuse(self):
        raise AssertionError("built through the constructor path")

    CaseAnnotation.__post_init__ = KeyFrames.__post_init__ = refuse
    try:
        yield
    finally:
        CaseAnnotation.__post_init__, KeyFrames.__post_init__ = saved


def _edges(x: float) -> list:
    """``x`` and the floats on either side of it."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


@st.composite
def _case(draw) -> dict:
    """A well-formed case as its JSON object."""
    gap = st.floats(0.0, 5.0)
    intent = draw(st.floats(0.0, 20.0))
    deadline = intent + draw(gap)
    pnr = deadline + DEADLINE_OFFSET + draw(st.floats(-DEADLINE_TOLERANCE, DEADLINE_TOLERANCE))
    impact = max(pnr, deadline) + draw(gap)
    end = impact + draw(gap)
    difficulty = draw(st.sampled_from(DIFFICULTY_LEVELS))
    entities = draw(st.lists(st.sampled_from(["kettle", "stairs", "knife", "pot"]),
                             min_size=difficulty != "D3", max_size=3))
    return {
        "case_id": draw(st.sampled_from(["b00001", "c", "case-1"])),
        "location": draw(st.sampled_from(LOCATIONS)),
        "danger_category": draw(st.sampled_from(DANGER_CATEGORIES)),
        "severity": draw(st.sampled_from(SEVERITY_LEVELS)),
        "difficulty": difficulty,
        "key_frames": {"intent_onset": intent, "pnr": pnr, "intervention_deadline": deadline,
                       "impact": impact, "action_end": end},
        "key_entities": entities,
        "duration": end + draw(gap),
        "is_valid": draw(st.booleans()),
    }


def _holder(d: dict, name: str):
    """The object that holds the number ``name``, or None if it is gone."""
    holder = d if name == "duration" else d.get("key_frames")
    return holder if isinstance(holder, dict) and name in holder else None


def _float_at(d: dict, name: str):
    """The number ``name`` if it is still there as a float, else None."""
    holder = _holder(d, name)
    return holder[name] if holder is not None and type(holder[name]) is float else None


@st.composite
def _mutation(draw, d: dict) -> None:
    """Change ``d`` at one boundary of the direct path's test; a change whose
    field an earlier one removed is skipped."""
    kind = draw(st.sampled_from([
        "negative_zero", "ordering_edge", "deadline_edge", "deadline_below_zero",
        "no_deadline", "not_a_float", "non_finite", "is_valid", "entities", "closed_set",
        "unhashable", "case_id", "missing", "key_frames", "extra_key", "renamed_key"]))
    kf = d.get("key_frames")
    name = draw(st.sampled_from(CHAIN))
    holder = _holder(d, name)
    if kind in ("negative_zero", "not_a_float", "non_finite") and holder is None:
        return
    if kind in ("deadline_edge", "deadline_below_zero", "no_deadline", "missing") \
            and not isinstance(kf, dict):
        return
    if kind == "negative_zero":
        holder[name] = -0.0
    elif kind == "ordering_edge":  # an earlier value at or around a later one + _EPS
        i = draw(st.integers(0, len(CHAIN) - 2))
        lo, hi = _holder(d, CHAIN[i]), _float_at(d, CHAIN[i + 1])
        if lo is not None and hi is not None:
            lo[CHAIN[i]] = draw(st.sampled_from(_edges(hi + _EPS)))
    elif kind == "deadline_edge":  # at or around the tolerance on either side
        if (pnr := _float_at(d, "pnr")) is not None:
            slack = draw(st.sampled_from([-1.0, 1.0])) * (DEADLINE_TOLERANCE + _EPS)
            kf["intervention_deadline"] = draw(st.sampled_from(
                _edges(pnr - DEADLINE_OFFSET + slack)))
    elif kind == "deadline_below_zero":  # within the ordering tolerance of intent = 0
        deadline = -draw(st.sampled_from([_EPS, _EPS / 2, 5e-324]))
        kf.update(intent_onset=0.0, intervention_deadline=deadline,
                  pnr=deadline + DEADLINE_OFFSET, impact=1.0, action_end=2.0)
        d["duration"] = 3.0
    elif kind == "no_deadline":
        kf.pop("intervention_deadline", None)
    elif kind == "not_a_float":
        v = holder[name]
        as_int = [round(v), math.ceil(v)] if type(v) is float and math.isfinite(v) else []
        holder[name] = draw(st.sampled_from(as_int + [str(v), True, False, None]))
    elif kind == "non_finite":
        holder[name] = draw(st.sampled_from([math.inf, -math.inf, math.nan, -1.0]))
    elif kind == "is_valid":
        d["is_valid"] = draw(st.sampled_from([None, 0, 1, "true", []]))
    elif kind == "entities":
        d["key_entities"] = draw(st.sampled_from(
            [[], ["Kettle"], [""], [3], ["kettle", None], ["kettle", "KNIFE"], "kettle", None, {}]))
        d["difficulty"] = draw(st.sampled_from(DIFFICULTY_LEVELS))
    elif kind == "closed_set":
        d[draw(st.sampled_from(CLOSED))] = draw(st.sampled_from(WRONG_SET + [3, None, True]))
    elif kind == "unhashable":
        d[draw(st.sampled_from([*CLOSED, "case_id", "is_valid"]))] = draw(
            st.sampled_from([["balcony"], {}, [["D1"]]]))
    elif kind == "case_id":
        d["case_id"] = draw(st.sampled_from(["", 5, None, True]))
    elif kind == "missing":
        if draw(st.booleans()) or not kf:
            d.pop(draw(st.sampled_from(sorted(d))))
        else:
            kf.pop(draw(st.sampled_from(sorted(kf))))
    elif kind in ("extra_key", "renamed_key"):  # the key count's two sides
        target = kf if isinstance(kf, dict) and draw(st.booleans()) else d
        if kind == "renamed_key" and target:
            target.pop(draw(st.sampled_from(sorted(target))))
        target[draw(st.sampled_from(["is_vaild", "durration", "pnr_", "note", ""]))] = \
            draw(st.sampled_from([False, 1.0, None]))
    else:
        d["key_frames"] = draw(st.sampled_from([[], None, "0.5", [kf]]))


@st.composite
def _draws(draw) -> tuple:
    """(the case's JSON text, whether it is known to be well-formed)."""
    d = draw(_case())
    n = draw(st.sampled_from([0, 1, 1, 2]))
    for _ in range(n):
        draw(_mutation(d))
    return json.dumps(d), n == 0


_BASE = {"case_id": "a", "location": "bedroom", "danger_category": "C4", "severity": "L2",
         "difficulty": "D1", "duration": 6.0, "key_entities": ["kettle"], "is_valid": True,
         "key_frames": {"intent_onset": 3.6, "intervention_deadline": 3.8, "pnr": 4.0,
                        "impact": 4.5, "action_end": 5.0}}


def _variant(key_frames=None, well_formed=False, **fields) -> tuple:
    """A draw of ``_BASE`` with some fields and key frames replaced."""
    kf = {**_BASE["key_frames"], **(key_frames or {})}
    return json.dumps({**_BASE, "key_frames": kf, **fields}), well_formed


def _renamed(key: str, new: str) -> tuple:
    """A draw of ``_BASE`` with ``key`` renamed ``new``: the key count holds."""
    d = dict(_BASE)
    d[new] = d.pop(key)
    return json.dumps(d), False


def _outcome(decode, d):
    """The case ``decode(d)`` returns, or (exception class, message)."""
    try:
        return decode(d)
    except Exception as exc:  # any class: a TypeError must match too
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(_draws())
# The bounds of the direct path's test and its entities rule, in every run.
@example(_variant({"intent_onset": 0.0, "intervention_deadline": -_EPS / 2, "pnr": 0.2,
                   "impact": 1.0, "action_end": 2.0}))
@example(_variant({"intent_onset": -_EPS / 2}))
@example(_variant({"intent_onset": -0.0}, well_formed=True))
@example(_variant(key_entities=[], difficulty="D1"))
@example(_variant(key_entities=[], difficulty="D2"))
@example(_variant(key_entities=[], difficulty="D3", well_formed=True))
@example(_variant(duration=math.inf))
@example(_variant(key_entities=["Kettle"]))
@example(_variant(case_id=""))
@example(_variant(severity="none"))  # a severity claim, not an annotated severity
@example(_variant(is_vaild=False))
@example(_variant({"note": 1.0}))
@example(_renamed("duration", "durration"))
@example(_renamed("is_valid", "is_vaild"))
def test_decode_matches_the_constructor_path(draw):
    """An equal case holding the same shared strings, or the same error; and
    a well-formed case never runs a ``__post_init__``."""
    text, well_formed = draw
    # Each decode gets its own fresh objects, as a file decode would.
    want = _outcome(reference_case_decode, json.loads(text))
    if well_formed:
        with _constructor_path_refused():
            got = _outcome(CaseAnnotation.from_dict, json.loads(text))
    else:
        got = _outcome(CaseAnnotation.from_dict, json.loads(text))
    if isinstance(want, tuple):
        assert got == want
        return
    assert type(got) is CaseAnnotation and type(got.key_frames) is KeyFrames
    assert got == want and repr(got) == repr(want)  # repr tells -0.0 and ints apart
    for name in CLOSED:
        assert getattr(got, name) is _SHARED[getattr(want, name)]
    assert type(got.key_entities) is tuple


def _reference_load(path: str) -> dict:
    """``load_annotations`` the plain way: ``json.loads`` of the whole file,
    then ``CaseAnnotation.from_dict`` on each element in order, with the
    duplicate check."""
    cases = {}
    try:
        with open(path, encoding="utf-8") as fh:
            value = json.loads(fh.read())
        if not isinstance(value, list):
            raise SchemaError(f"{path} must contain a JSON array of cases")
        for d in value:
            ann = CaseAnnotation.from_dict(d)
            if ann.case_id in cases:
                raise DuplicateCaseError(f"duplicate case_id {ann.case_id!r} in {path}")
            cases[ann.case_id] = ann
    except JSON_ERRORS as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    return cases


def _load_outcome(load, path: str):
    """The cases ``load(path)`` returns, in key order and by repr, or
    (exception class, message)."""
    try:
        cases = load(path)
    except Exception as exc:  # any class: a TypeError must match too
        return type(exc), str(exc)
    return type(cases), [(k, type(v), repr(v)) for k, v in cases.items()]


def _nest(host: dict, inner: dict, where: str) -> None:
    """Put the case-shaped object ``inner`` inside ``host``, where the
    loader's hook meets it before ``host`` is decoded."""
    if where == "key_entities":
        host["key_entities"] = [inner]
    elif where == "in_key_frames":
        if isinstance(host.get("key_frames"), dict):
            host["key_frames"]["note"] = inner
    else:  # "location" or "key_frames"
        host[where] = inner


@st.composite
def _files(draw) -> bytes:
    """An annotation file: up to four drawn cases, one of them maybe holding
    another, spelled as ``json.dumps`` spells it, maybe with a bad end."""
    cases = [json.loads(draw(_draws())[0]) for _ in range(draw(st.integers(0, 4)))]
    if cases and draw(st.booleans()):
        _nest(cases[draw(st.integers(0, len(cases) - 1))], json.loads(draw(_draws())[0]),
              draw(st.sampled_from(["location", "key_entities", "key_frames", "in_key_frames"])))
    text = json.dumps(cases, **draw(st.sampled_from([{}, {"indent": 2},
                                                     {"separators": (",", ":")}])))
    end = draw(st.sampled_from(["as_is", "as_is", "as_is", "trailing", "cut", "bom"]))
    if end == "trailing":
        text += " x"
    elif end == "cut":
        text = text[:-1]
    elif end == "bom":
        text = "\ufeff" + text
    return text.encode("utf-8")


def _file(value, **spelling) -> bytes:
    return json.dumps(value, **spelling).encode("utf-8")


_BAD = {**_BASE, "case_id": "b", "duration": "long"}
_DEEP = b"[" * 100_000 + b"]" * 100_000


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_files())
# A case-shaped object nested where the hook builds it first.
@example(data=_file([{**_BASE, "location": _BASE}]))
@example(data=_file([{**_BASE, "key_entities": ["kettle", _BASE]}]))
@example(data=_file([{**_BASE, "key_frames": {**_BASE["key_frames"], "note": _BASE}}]))
@example(data=_file([{**_BASE, "key_frames": _BASE}]))
# The first duplicate or bad case in file order wins; a JSON error wins over both.
@example(data=_file([_BASE, _BASE, _BAD]))
@example(data=_file([_BASE, _BAD, _BASE]))
@example(data=_file([_BAD, _BASE])[:-1])
@example(data=_file(_BASE))
@example(data=b"[]")
@example(data=_file([{**_BASE, "duration": math.nan}]))
@example(data=_file([_BASE, 1]))
@example(data=_DEEP)
@example(data="\ufeff".encode("utf-8") + _file([_BASE]))
@example(data=_file([_BASE, {**_BASE, "case_id": "b"}], indent=2))
@example(data=_file([_BASE]) + b" x")
@example(data=b'[{"case_id": "\xff"}]')
def test_load_matches_the_plain_reference(tmp_path, data):
    """The same cases in the same order, or the same exception and text."""
    path = tmp_path / "anns.json"
    path.write_bytes(data)
    assert _load_outcome(load_annotations, str(path)) == _load_outcome(_reference_load, str(path))
