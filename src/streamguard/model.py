"""Core domain types shared by the coordinator and the evaluation harness.

Everything here is an immutable value object with a canonical JSON
encoding (snake_case field names).  The JSON dicts produced by
``to_dict`` round-trip exactly through the matching ``from_dict``.
"""

from __future__ import annotations

import gc
import json
import math
import re
from bisect import bisect_right
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, fields
from enum import Enum
from operator import attrgetter, gt
from types import MemberDescriptorType
from typing import ClassVar, Optional, get_args, get_origin, get_type_hints

# Annotated timestamps are displayed at 0.1 s resolution; the deadline is
# defined as PNR - 200 ms but may be off by up to half a display tick.
DEADLINE_OFFSET = 0.2
DEADLINE_TOLERANCE = 0.05
_EPS = 1e-9
_INF = math.inf
_DEADLINE_SLACK = DEADLINE_TOLERANCE + _EPS

LOCATIONS = ("bedroom", "bathroom", "living_room", "dining_room", "study", "balcony")
DANGER_CATEGORIES = ("C1", "C2", "C3", "C4")
SEVERITY_LEVELS = ("L1", "L2", "L3", "L4")
SEVERITY_CLAIMS = ("none",) + SEVERITY_LEVELS
DIFFICULTY_LEVELS = ("D1", "D2", "D3")

# Each closed-set value mapped to itself.  The JSON decoder builds a new str
# for every value it reads, so a decoded record would hold its own copy of
# "balcony" or "hazard"; the decoders swap each for the one held here.  One
# seed-7 score_bulk ``agreement`` peaks at 26.3 MiB under tracemalloc with it
# and 34.4 MiB without, and a score_bulk benchmark run at 65.0 against 71.3 MB
# peak RSS, lower in 10 of 10 pairs (``BENCH_fastpath_ledger.json``).
_SHARED = {s: s for s in (*LOCATIONS, *DANGER_CATEGORIES, *SEVERITY_CLAIMS, *DIFFICULTY_LEVELS,
                          "safe", "hazard", "ok", "format_error")}
# An annotation's closed sets, each value mapped to its ``_SHARED`` copy: one
# ``get`` both tests a str and swaps it.
_LOCATION_OF, _CATEGORY_OF, _SEVERITY_OF, _DIFFICULTY_OF = (
    {s: _SHARED[s] for s in values}
    for values in (LOCATIONS, DANGER_CATEGORIES, SEVERITY_LEVELS, DIFFICULTY_LEVELS))


class ModelError(Exception):
    """Base class for domain validation errors."""


class OrderingError(ModelError):
    """Key-frame timestamps violate the hazard lifecycle order."""


class DeadlineError(ModelError):
    """Intervention deadline is not PNR - 200 ms within tolerance."""


class SchemaError(ModelError):
    """A field is missing, has the wrong type, or is outside its closed set."""


# What a decoder turns into a SchemaError: a wrong shape or type, or a nested
# decoder's SchemaError, which the outer one prefixes with its context.  A
# decoder whose constructor already names the case constructs outside the try.
DECODE_ERRORS = (KeyError, TypeError, ValueError, OverflowError, AttributeError, SchemaError)

# What a failed JSON decode raises: ValueError for malformed text, bad UTF-8
# or an integer too long to convert, RecursionError for nesting too deep.
JSON_ERRORS = (ValueError, RecursionError)


def decode_error(what: str, d, exc: Exception) -> SchemaError:
    """The one-line SchemaError for a JSON value ``d`` that did not decode as ``what``."""
    if not isinstance(d, dict):
        return SchemaError(f"{what} must be a JSON object, got {type(d).__name__}")
    if "case_id" in d:
        what = f"{what} {d['case_id']}"
    if isinstance(exc, KeyError):
        return SchemaError(f"missing field {exc} in {what}")
    return SchemaError(f"{what}: {exc}")


def _json_object(path: str, what: str, d) -> dict:
    """``d``, the JSON value of the file ``path`` or an element of its array,
    if it is an object.  Otherwise the SchemaError names the file, so that
    two files of one kind, such as ``--fast`` and ``--slow``, can be told apart."""
    if not isinstance(d, dict):
        raise SchemaError(f"{path}: {what} must be a JSON object, got {type(d).__name__}")
    return d


def _check_keys(d: dict, known: Sequence[str], where: str) -> None:
    """Refuse a key of ``d`` outside ``known``: a misspelled key would read
    as absent, and leave its value at the default without a word."""
    for k in d:
        if k not in known:
            raise SchemaError(f"unknown key {k!r}{where} (known: {', '.join(known)})")


def _number(name: str, v) -> float:
    """The float for a decoded number field ``name``.

    A float is returned as it is, and an int converts.  A bool or a string
    is no number, though ``float()`` reads ``true`` and ``"0.5"`` as one: it
    is a SchemaError naming the field.  A value that ``float()`` refuses
    keeps ``float()``'s error, and an int too large for a float raises
    OverflowError.  The decoders that run once per frame, event or
    prediction record call this only for a value whose type is not
    ``float``, so the usual value costs one type test.  The others call it
    for every value: those that run a few times per file, and the checked
    path of ``CaseAnnotation.from_dict``, which a well-formed case skips.
    """
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    float(v)  # raises for a value that is no number in any spelling
    raise SchemaError(f"{name} must be a JSON number, got {v!r}")


def _integer(name: str, v) -> int:
    """The int for a decoded integer field ``name``, as ``_number`` is for a
    float one: ``int()`` reads ``true``, ``"1"`` and ``1.7`` as 1, but here a
    bool, a string or a float is a SchemaError naming the field."""
    if type(v) is int:
        return v
    int(v)  # raises for a value that is no number in any spelling
    raise SchemaError(f"{name} must be a JSON integer, got {v!r}")


@contextmanager
def gc_paused():
    """Run a whole read-side CLI command, as ``@gc_paused()``, with the
    cyclic garbage collector off.

    A decode allocates several tracked containers per record.  With the
    collector on, they start a collection every few hundred allocations;
    most walk only the young objects, but as the decoded records pile up in
    the oldest generation, full collections walk them all again.  The decode
    builds no reference cycles, so reference counting alone frees what it
    drops.  The collector is re-enabled on exit only if it was enabled on
    entry.

    CPython counts tracked allocations minus frees towards the next
    collection.  A pause that ended while the decoded records were still
    alive would leave that count high, and the first allocation after it
    would run a collection that walks every record once.  Around the whole
    command, the records are freed first and re-enabling walks almost
    nothing.  A score_bulk benchmark pass takes 1.020 s with the pause and
    1.078 s without, lower in 9 of 10 pairs (``BENCH_fastpath_ledger.json``).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# JSON whitespace, as ``json.loads`` skips it.
_json_ws = re.compile(r"[ \t\n\r]*").match
# The C scanner inside ``json.loads``: ``_scan_once(text, i)`` is the value
# that starts at ``text[i]`` and the index after it, or StopIteration when no
# value starts there.
_scan_once = json.JSONDecoder().scan_once


def decode_json_array(text: str, decode) -> Optional[list]:
    """``[decode(v) for v in json.loads(text)]``, one element at a time.

    Each element goes to ``decode`` as soon as it is scanned and is dropped
    when ``decode`` returns, so the decoded array is never alive as a whole:
    a load holds ``text`` and what ``decode`` has returned so far.  Returns
    None if ``text`` is not an array (a caller's ``json.loads(text)`` then
    gives the value, or the error).

    The errors are the ones ``json.loads(text)`` would give.  Malformed text
    raises ``json.loads(text)``'s own exception, wording and position
    included; an exception from ``decode`` is re-raised only after
    ``json.loads(text)`` has found the whole text valid, so a JSON error
    anywhere in the text wins.

    One seed-7 score_bulk ``agreement`` peaks at 26.3 MiB under tracemalloc
    with it and 40.8 MiB with ``json.loads``, and a score_bulk benchmark run
    at 65.0 against 74.2 MB peak RSS, lower in 10 of 10 pairs
    (``BENCH_fastpath_ledger.json``).
    """
    ws, scan = _json_ws, _scan_once
    i = ws(text).end()
    if not text.startswith("[", i):
        return None
    out = []
    i = ws(text, i + 1).end()
    more = not text.startswith("]", i)
    while more:
        try:
            try:
                value, i = scan(text, i)
            except StopIteration:  # whitespace after a ", " separator, or no value
                value, i = scan(text, ws(text, i).end())
            if text.startswith(", ", i):
                i += 2
            else:
                i = ws(text, i).end()
                if text.startswith(",", i):
                    i = ws(text, i + 1).end()
                elif text.startswith("]", i):
                    more = False
                else:
                    break
        except (StopIteration, ValueError):  # no value, or a malformed one
            break
        try:
            out.append(decode(value))
        except Exception:
            json.loads(text)  # a JSON error anywhere in the text wins
            raise
    else:  # ``i`` is at the closing bracket
        if ws(text, i + 1).end() == len(text):
            return out
    json.loads(text)  # malformed: raises json's own error for it
    raise AssertionError("json.loads read a text that decode_json_array turned down")


def _slot_twin(cls):
    """Give a slotted dataclass ``_unchecked``, a constructor that stores
    through a mutable twin of its slots.  ``__init__`` stays the one that
    ``dataclass`` generated.

    ``cls._unchecked(*values)`` is the instance holding ``values``, in field
    order, built through a private twin: a class built here once, with the
    same slots and no ``__setattr__`` of its own.  It allocates a twin,
    stores each value with a plain ``self.<field> = <field>``, which CPython
    turns into a direct slot write (the frozen class's ``__setattr__`` rules
    that out on the class itself), then sets ``self.__class__ = cls``.
    CPython lays slots out by name and allows that assignment only between
    two identical layouts, so the result is an ordinary instance of ``cls``
    and no twin escapes.  It runs no ``__post_init__``: the caller has
    checked the values, or they are right by construction, and calls
    ``__post_init__`` itself where the class has one.

    It pays: a ``CaseAnnotation`` builds in about 330 ns this way and 770 ns
    through the slot descriptors, and a score_bulk benchmark pass takes
    0.876 against 0.969 s, lower in 10 of 10 pairs (``BENCH_slot_twin.json``).
    A ``Frame`` builds in about 260 ns this way and 430 ns through the
    dataclass ``__init__``, a ``FastState`` in 270 against 550 ns (best of 5
    x 1M calls, Python 3.11.7), so frame lookups, ``run_case`` and the event
    decode build through it too.  An ``__init__`` that stored through the
    slot descriptors (290 and 350 ns) was a third way to build each record,
    and is gone: without it, corpus and long_stream benchmark passes read
    no slower, lower in 6 of 10 pairs each (``BENCH_one_constructor.json``).

    A class with a field that is not a slot, with a base other than
    ``object``, whose inherited slots the twin would not copy, or whose twin
    cannot be swapped for it, raises TypeError here.
    """
    names = [f.name for f in fields(cls)]
    if not all(isinstance(vars(cls).get(n), MemberDescriptorType) for n in names):
        raise TypeError(f"{cls.__name__}: every field must be a slot")
    if cls.__bases__ != (object,):
        raise TypeError(f"{cls.__name__}: a slotted record must derive from object alone")
    twin = type(f"_{cls.__name__}Slots", (), {"__slots__": cls.__slots__})
    store = "".join(f"        self.{n} = {n}\n" for n in names)
    ns = {}
    exec(f"def make(cls, twin, new):\n"
         f"    def _unchecked({', '.join(names)}):\n        self = new(twin)\n{store}"
         f"        self.__class__ = cls\n        return self\n"
         f"    return _unchecked\n", globals(), ns)
    unchecked = ns["make"](cls, twin, object.__new__)
    try:
        unchecked(*names)
    except TypeError as exc:
        raise TypeError(f"{cls.__name__}: cannot build through a twin of its slots: {exc}") from None
    unchecked.__qualname__ = f"{cls.__qualname__}._unchecked"
    unchecked.__doc__ = (f"The {cls.__name__} holding these field values, built through a twin "
                         "of its slots.  The caller has checked the values, or they are right "
                         "by construction, and runs ``__post_init__`` where the class has one.")
    cls._unchecked = staticmethod(unchecked)
    return cls


class SafetyState(str, Enum):
    GREEN = "green"
    YELLOW = "yellow"
    RED = "red"


class Phase(str, Enum):
    PREMATURE = "premature"
    OPTIMAL = "optimal"
    SUBOPTIMAL = "suboptimal"
    IRREVERSIBLE = "irreversible"
    MISSED = "missed"


class AlertSource(str, Enum):
    FAST = "fast"
    SLOW = "slow"


@_slot_twin
@dataclass(frozen=True, slots=True)
class KeyFrames:
    """The five annotated timestamps delimiting one hazard lifecycle."""

    intent_onset: float
    pnr: float
    intervention_deadline: float
    impact: float
    action_end: float

    def __post_init__(self):
        for f in fields(self):  # in field order, so the first bad one is named
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
                raise SchemaError(f"key frame {f.name} must be a finite non-negative number, "
                                  f"got {v!r}")
        intent, pnr, deadline = self.intent_onset, self.pnr, self.intervention_deadline
        impact, end = self.impact, self.action_end
        if (intent > deadline + _EPS or deadline > pnr + _EPS or pnr > impact + _EPS
                or impact > end + _EPS):
            raise OrderingError(
                "key frames must satisfy intent <= deadline <= pnr <= impact <= end, got "
                f"{(intent, deadline, pnr, impact, end)}"
            )
        if abs(deadline - (pnr - DEADLINE_OFFSET)) > _DEADLINE_SLACK:
            raise DeadlineError(
                f"deadline {deadline} not within {DEADLINE_TOLERANCE}s of "
                f"pnr - {DEADLINE_OFFSET} = {pnr - DEADLINE_OFFSET}"
            )

    def to_dict(self) -> dict:
        return {
            "intent_onset": self.intent_onset,
            "pnr": self.pnr,
            "intervention_deadline": self.intervention_deadline,
            "impact": self.impact,
            "action_end": self.action_end,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "KeyFrames":
        try:
            intent, pnr = _number("intent_onset", d["intent_onset"]), _number("pnr", d["pnr"])
            # Loaders may synthesize the deadline when the file omits it.
            if "intervention_deadline" in d:
                deadline = _number("intervention_deadline", d["intervention_deadline"])
            else:
                deadline = max(pnr - DEADLINE_OFFSET, intent)
            impact, end = _number("impact", d["impact"]), _number("action_end", d["action_end"])
            return cls(intent, pnr, deadline, impact, end)
        except DECODE_ERRORS as exc:
            raise decode_error("key_frames", d, exc) from exc


@_slot_twin
@dataclass(frozen=True, slots=True)
class CaseAnnotation:
    """Ground truth for one video case."""

    case_id: str
    location: str
    danger_category: str
    severity: str
    difficulty: str
    key_frames: KeyFrames
    key_entities: tuple[str, ...]
    duration: float
    is_valid: bool = True

    def __post_init__(self):
        # One check per field, in the order the error texts need.  The closed
        # sets stay tuples: an unhashable value must fail the test, not raise.
        case_id, difficulty, duration = self.case_id, self.difficulty, self.duration
        if not isinstance(case_id, str):
            raise SchemaError(f"case_id must be a string, got {case_id!r}")
        if not case_id:
            raise SchemaError("case_id must be non-empty")
        if self.location not in LOCATIONS:
            raise SchemaError(f"unknown location {self.location!r} for case {case_id}")
        if self.danger_category not in DANGER_CATEGORIES:
            raise SchemaError(f"unknown danger_category {self.danger_category!r} for case {case_id}")
        if self.severity not in SEVERITY_LEVELS:
            raise SchemaError(f"unknown severity {self.severity!r} for case {case_id}")
        if difficulty not in DIFFICULTY_LEVELS:
            raise SchemaError(f"unknown difficulty {difficulty!r} for case {case_id}")
        end = self.key_frames.action_end
        if end > duration + _EPS:
            raise OrderingError(f"action_end {end} exceeds duration {duration} for case {case_id}")
        # After the action_end check, so a negative duration keeps that check's error.
        if not (isinstance(duration, (int, float)) and 0 <= duration < _INF):
            raise SchemaError(f"case {case_id}: duration must be a finite non-negative number, "
                              f"got {duration!r}")
        entities = self.key_entities
        if not entities and difficulty in ("D1", "D2"):
            raise SchemaError(f"case {case_id}: key_entities required for {difficulty} cases")
        for e in entities:
            if not isinstance(e, str) or e != e.lower() or not e:
                raise SchemaError(f"case {case_id}: key_entities must be non-empty lowercase strings")
        if type(self.is_valid) is not bool:  # bool has no subclasses
            raise SchemaError(f"case {case_id}: is_valid must be a boolean, got {self.is_valid!r}")

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "location": self.location,
            "danger_category": self.danger_category,
            "severity": self.severity,
            "difficulty": self.difficulty,
            "key_frames": self.key_frames.to_dict(),
            "key_entities": list(self.key_entities),
            "duration": self.duration,
            "is_valid": self.is_valid,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CaseAnnotation":
        """The case for a decoded JSON object.

        A known ``location``, ``danger_category``, ``severity`` or
        ``difficulty`` string is replaced by the module's own copy, so every
        decoded case shares those strings instead of holding its own.

        A well-formed case is read once and checked by one straight-line
        test: five float key frames in [0, inf), in order and meeting the
        deadline rule, a float ``duration`` that covers ``action_end``, a
        non-empty str ``case_id``, closed-set strings, a list of non-empty
        lowercase str entities where the difficulty needs one, and a bool
        ``is_valid``.  It is then built through the slots (``_unchecked``),
        with no ``KeyFrames.from_dict``, ``__init__`` or ``__post_init__``.
        A case that fails the test takes the checked way below, which raises
        each error, so the test decides only how fast a case is built.

        It pays: a score_bulk benchmark pass takes 0.976 s with it and 1.068 s
        at the parent commit, lower in 10 of 10 pairs, of which the same
        change's unsorted ``agreement_table`` walk is about 9 ms.  One check
        function shared with ``__post_init__``, and no test, read 1.032
        against 1.044 s, lower in 5 of 10 (``BENCH_direct_annotation.json``).
        """
        if type(d) is dict and type(kf := d.get("key_frames")) is dict:
            intent, pnr, deadline = (kf.get("intent_onset"), kf.get("pnr"),
                                     kf.get("intervention_deadline"))
            impact, end, duration = kf.get("impact"), kf.get("action_end"), d.get("duration")
            case_id, entities = d.get("case_id"), d.get("key_entities")
            location, category = d.get("location"), d.get("danger_category")
            severity, difficulty = d.get("severity"), d.get("difficulty")
            is_valid = d.get("is_valid", True)
            # ``intent`` and ``deadline`` >= 0 bound the rest below, through
            # the ordering and the deadline rule; ``duration`` bounds them above.
            if (type(intent) is float and type(pnr) is float and type(deadline) is float
                    and type(impact) is float and type(end) is float and type(duration) is float
                    and 0.0 <= intent <= deadline + _EPS and 0.0 <= deadline <= pnr + _EPS
                    and pnr <= impact + _EPS and impact <= end + _EPS and end <= duration + _EPS
                    and duration < _INF
                    and abs(deadline - (pnr - DEADLINE_OFFSET)) <= _DEADLINE_SLACK
                    and type(case_id) is str and case_id
                    and type(location) is str and (location := _LOCATION_OF.get(location))
                    and type(category) is str and (category := _CATEGORY_OF.get(category))
                    and type(severity) is str and (severity := _SEVERITY_OF.get(severity))
                    and type(difficulty) is str and (difficulty := _DIFFICULTY_OF.get(difficulty))
                    and type(entities) is list and (entities or difficulty == "D3")
                    and type(is_valid) is bool):
                for e in entities:
                    if not (type(e) is str and e and e == e.lower()):
                        break
                else:
                    return cls._unchecked(case_id, location, category, severity, difficulty,
                                          KeyFrames._unchecked(intent, pnr, deadline, impact, end),
                                          tuple(entities), duration, is_valid)
        try:
            entities = d.get("key_entities", [])
            if not isinstance(entities, list):
                raise TypeError(f"key_entities must be a list of strings, got {entities!r}")
            case_id = d["case_id"]
            location = _SHARED.get(v, v) if type(v := d["location"]) is str else v
            category = _SHARED.get(v, v) if type(v := d["danger_category"]) is str else v
            severity = _SHARED.get(v, v) if type(v := d["severity"]) is str else v
            difficulty = _SHARED.get(v, v) if type(v := d["difficulty"]) is str else v
            key_frames = KeyFrames.from_dict(d["key_frames"])
            duration = _number("duration", d["duration"])
            is_valid = d.get("is_valid", True)
        except DECODE_ERRORS as exc:
            raise decode_error("case", d, exc) from exc
        except (OrderingError, DeadlineError) as exc:
            # Raised only by the key frames, which do not know their case.
            raise type(exc)(f"case {d['case_id']}: {exc}") from exc
        return cls(case_id, location, category, severity, difficulty, key_frames,
                   tuple(entities), duration, is_valid)


@dataclass(frozen=True)
class PhaseScoreTable:
    """Score in [0, 100] per temporal phase.

    The default table fixes the Optimal score at 100 and penalizes late or
    premature detections progressively.
    """

    scores: dict  # Phase -> float

    def __post_init__(self):
        missing = set(Phase) - set(self.scores)
        if missing:
            raise SchemaError(f"score table missing phases: {sorted(p.value for p in missing)}")
        for phase, score in self.scores.items():
            if not 0 <= score <= 100:
                raise SchemaError(f"score for {phase.value} out of [0, 100]: {score}")

    def __getitem__(self, phase: Phase) -> float:
        return self.scores[phase]

    @classmethod
    def default(cls) -> "PhaseScoreTable":
        return cls({
            Phase.PREMATURE: 0.0,
            Phase.OPTIMAL: 100.0,
            Phase.SUBOPTIMAL: 50.0,
            Phase.IRREVERSIBLE: 25.0,
            Phase.MISSED: 0.0,
        })

    @classmethod
    def from_dict(cls, d: dict) -> "PhaseScoreTable":
        if not isinstance(d, dict):
            raise SchemaError(f"score table must be an object, got {type(d).__name__}")
        try:
            scores = {Phase(k): _number(k, v) for k, v in d.items()}
        except (TypeError, ValueError, OverflowError, SchemaError) as exc:
            raise SchemaError(f"bad score table entry: {exc}") from exc
        return cls(scores)


@_slot_twin
@dataclass(frozen=True, slots=True)
class PredictionRecord:
    """One model verdict for one case: Safe, or a hazard timestamp."""

    case_id: str
    verdict: str  # "safe" | "hazard"
    timestamp: Optional[float] = None
    severity_claim: Optional[str] = None  # "none" | "L1".."L4"
    reasoning_text: str = ""
    raw_output: str = ""
    parse_status: str = "ok"  # "ok" | "format_error"
    parse_detail: str = ""

    def __post_init__(self):
        # One check per field, in the order the error texts need.  The closed
        # sets stay tuples: an unhashable value must fail the test, not raise.
        verdict, timestamp, claim = self.verdict, self.timestamp, self.severity_claim
        if not isinstance(self.case_id, str):
            raise SchemaError(f"case_id must be a string, got {self.case_id!r}")
        if verdict not in ("safe", "hazard"):
            raise SchemaError(f"verdict must be 'safe' or 'hazard', got {verdict!r}")
        if verdict == "hazard" and (timestamp is None or not math.isfinite(timestamp)
                                    or timestamp < 0):
            raise SchemaError(
                f"hazard verdict requires a finite non-negative timestamp, got {timestamp!r}")
        if claim is not None and claim not in SEVERITY_CLAIMS:
            raise SchemaError(f"unknown severity_claim {claim!r}")
        if self.parse_status not in ("ok", "format_error"):
            raise SchemaError(f"unknown parse_status {self.parse_status!r}")
        if not isinstance(self.reasoning_text, str):
            raise SchemaError(f"reasoning_text must be a string, got {self.reasoning_text!r}")
        if not isinstance(self.raw_output, str):
            raise SchemaError(f"raw_output must be a string, got {self.raw_output!r}")
        if not isinstance(self.parse_detail, str):
            raise SchemaError(f"parse_detail must be a string, got {self.parse_detail!r}")

    @property
    def is_hazard(self) -> bool:
        """True when this record counts as a cleanly parsed hazard prediction."""
        return self.parse_status == "ok" and self.verdict == "hazard"

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "verdict": self.verdict,
            "timestamp": self.timestamp,
            "severity_claim": self.severity_claim,
            "reasoning_text": self.reasoning_text,
            "raw_output": self.raw_output,
            "parse_status": self.parse_status,
            "parse_detail": self.parse_detail,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PredictionRecord":
        """The record for a decoded JSON object.

        A known ``verdict``, ``severity_claim`` or ``parse_status`` string is
        replaced by the module's own copy, so every decoded record shares
        those strings instead of holding its own.  Any other value is kept as
        decoded, for ``__post_init__`` to check.

        The record is built through its slots' twin (``_unchecked``), and
        then checked by ``__post_init__``, as ``__init__`` would check it.

        A key that names no field is refused first: a misspelled
        ``parse_status`` would read as ``"ok"`` and score a format error as a
        clean verdict.  One subset test of the keys, in C, passes a good
        record; ``_check_keys`` runs only to name the bad key.
        """
        try:
            if not _PREDICTION_KEYS.issuperset(d):
                _check_keys(d, _PREDICTION_FIELDS, "")
            case_id = d["case_id"]
            verdict = _SHARED.get(v, v) if type(v := d["verdict"]) is str else v
            timestamp = d.get("timestamp")
            if not (timestamp is None or type(timestamp) is float):
                timestamp = _number("timestamp", timestamp)
            claim = _SHARED.get(v, v) if type(v := d.get("severity_claim")) is str else v
            status = _SHARED.get(v, v) if type(v := d.get("parse_status", "ok")) is str else v
            record = cls._unchecked(case_id, verdict, timestamp, claim, d.get("reasoning_text", ""),
                                    d.get("raw_output", ""), status, d.get("parse_detail", ""))
            record.__post_init__()
            return record
        except DECODE_ERRORS as exc:
            raise decode_error("prediction", d, exc) from exc


# The keys a prediction object may hold: ``PredictionRecord``'s fields, in
# order for the error text and as a set for the subset test.
_PREDICTION_FIELDS = tuple(f.name for f in fields(PredictionRecord))
_PREDICTION_KEYS = frozenset(_PREDICTION_FIELDS)


@_slot_twin
@dataclass(frozen=True, slots=True)
class Frame:
    """A single timestamped frame; the payload lives in an external file.

    Slotted: every lookup builds one, and without a ``__dict__`` it is both
    smaller and quicker to build.
    """

    t: float
    image_path: str = ""


# The keys a manifest object may hold: ``FrameManifest``'s fields.
_MANIFEST_KEYS = ("case_id", "fps_native", "frames", "pre_overlaid")


def _check_stream(case_id, times: tuple, pre_overlaid) -> None:
    """The manifest invariants, over the frame times as one column."""
    if not isinstance(case_id, str):
        raise SchemaError(f"manifest case_id must be a string, got {case_id!r}")
    if not case_id:
        raise SchemaError("manifest case_id must be non-empty")
    if not times:
        raise SchemaError(f"manifest for {case_id} has no frames")
    if not (all(map(math.isfinite, times)) and min(times) >= 0):
        raise SchemaError(f"manifest for {case_id} has a frame time that is "
                          "not finite and non-negative")
    if any(map(gt, times, times[1:])):
        raise SchemaError(f"manifest for {case_id} frames not time-ordered")
    if not isinstance(pre_overlaid, bool):
        raise SchemaError(f"manifest for {case_id}: pre_overlaid must be a boolean, "
                          f"got {pre_overlaid!r}")


@dataclass(frozen=True)
class FrameManifest:
    """The frame stream for one case, standing in for the camera.

    Every manifest keeps its frames as two flat columns, the times
    (``_times``) and the image paths (``_paths``).  ``latest_frame_at``,
    ``frames_at``, ``duration`` and ``to_dict`` read only these.  They are
    not part of the value: ``==``, ``hash``, ``repr`` and ``replace`` see
    only the fields.

    ``from_dict`` decodes straight into the columns and builds no ``Frame``:
    ``frames`` is built from them on its first read and then kept.
    ``frames_at`` builds none either: its ``FrameWindow`` looks each frame up
    in the columns when it is read.
    """

    case_id: str
    fps_native: float
    frames: tuple[Frame, ...]
    pre_overlaid: bool = True

    def __post_init__(self):
        times = tuple(f.t for f in self.frames)
        _check_stream(self.case_id, times, self.pre_overlaid)
        # Not fields: kept out of repr, ==, hash, to_dict and replace.
        object.__setattr__(self, "_times", times)
        object.__setattr__(self, "_paths", tuple(f.image_path for f in self.frames))

    def __getattr__(self, name: str):
        # Reached only on a miss: the ``frames`` of a decoded manifest before
        # its first read, or a name the class does not have.
        if name != "frames":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        # No lock: two first reads at once build equal tuples, and either one kept is right.
        frames = tuple(map(Frame._unchecked, self._times, self._paths))
        object.__setattr__(self, "frames", frames)
        return frames

    @property
    def duration(self) -> float:
        return self._times[-1]

    def latest_frame_at(self, t: float) -> Frame:
        """The last frame with timestamp <= t + _EPS (the first frame if none).

        A binary search over the times column, O(log n), that returns a new
        ``Frame`` equal to ``frames[i]``, built from the two columns through
        ``Frame._unchecked``: the columns hold what a checked decode or the
        manifest's own frames put there, and ``Frame`` has no ``__post_init__``.
        """
        i = max(bisect_right(self._times, t + _EPS) - 1, 0)
        return Frame._unchecked(self._times[i], self._paths[i])

    def frames_at(self, times) -> "FrameWindow":
        """``[self.latest_frame_at(t) for t in times]``, as a ``FrameWindow``
        that looks each frame up only when it is read."""
        return FrameWindow(self, times)

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "fps_native": self.fps_native,
            "frames": [{"t": t, "image_path": p} for t, p in zip(self._times, self._paths)],
            "pre_overlaid": self.pre_overlaid,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FrameManifest":
        """Decode straight into the two columns, in one pass over the frames.

        Each frame entry is read once: its ``t`` (through ``_number`` when it
        is not a float), then its ``image_path``.  The error names the first
        bad entry by its index in the array, from 0 (``frame 1``), never by
        a key it holds.  The stream checks are ``_check_stream``, as in
        ``__init__``.  A key outside ``_MANIFEST_KEYS`` is refused first: a
        misspelled ``pre_overlaid`` would read as absent, and its default
        would keep the frame times out of every prompt.
        """
        try:
            _check_keys(d, _MANIFEST_KEYS, "")
            case_id = d["case_id"]
            fps_native = _number("fps_native", d.get("fps_native", 10.0))
            times = []
            paths = []
            for f in d["frames"]:
                try:
                    times.append(t if type(t := f["t"]) is float else _number("t", t))
                    if not isinstance(p := f.get("image_path", ""), str):
                        raise SchemaError(f"image_path must be a string, got {p!r}")
                except DECODE_ERRORS as exc:
                    # ``len(paths)`` is this entry's index; an entry's own
                    # ``case_id`` key must not name it, so a dict passes as {}.
                    raise decode_error(f"frame {len(paths)}",
                                       {} if isinstance(f, dict) else f, exc) from exc
                paths.append(p)
            times = tuple(times)
            paths = tuple(paths)
            pre_overlaid = d.get("pre_overlaid", True)
        except DECODE_ERRORS as exc:
            raise decode_error("manifest", d, exc) from exc
        _check_stream(case_id, times, pre_overlaid)
        # Bypasses __init__: ``frames`` stays unset until its first read.
        m = object.__new__(cls)
        vars(m).update(case_id=case_id, fps_native=fps_native, pre_overlaid=pre_overlaid,
                       _times=times, _paths=paths)
        return m


class FrameWindow(Sequence):
    """The frames a manifest holds at some probe times, each looked up only
    when it is read: what ``FrameManifest.frames_at`` returns.

    Item ``k`` is ``manifest.latest_frame_at(times[k])``, a new ``Frame``
    on every read; a slice is the window of the sliced times, and iterating
    looks each time up once.  A reader that never reads a frame, such as the
    scripted backend or a prompt for pre-overlaid frames, builds none.  It
    is not a list, and ``==`` is identity: compare ``list(window)``.

    It pays: a long_stream benchmark pass takes 0.0635 s with it and 0.0708 s
    building every window's frames in one forward walk, lower in 10 of 10
    pairs (``BENCH_lazy_window.json``).
    """

    __slots__ = ("_manifest", "_times")

    def __init__(self, manifest: FrameManifest, times):
        self._manifest = manifest
        self._times = tuple(times)

    def __len__(self) -> int:
        return len(self._times)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return FrameWindow(self._manifest, self._times[k])
        return self._manifest.latest_frame_at(self._times[k])

    def __iter__(self):
        return map(self._manifest.latest_frame_at, self._times)


# --- Trace events ------------------------------------------------------------
# Slotted, like ``Frame``: the coordinator builds two or more per sample.
# ``kind`` names the event on the wire; it is a class attribute, not a field.

@_slot_twin
@dataclass(frozen=True, slots=True)
class FrameSampled:
    t: float
    rate: float
    kind: ClassVar[str] = "frame_sampled"


@_slot_twin
@dataclass(frozen=True, slots=True)
class FastState:
    t: float
    state: SafetyState
    fast_latency: float
    kind: ClassVar[str] = "fast_state"


@_slot_twin
@dataclass(frozen=True, slots=True)
class SlowDispatched:
    trigger_t: float
    window_frame_times: tuple[float, ...]
    kind: ClassVar[str] = "slow_dispatched"

    @property
    def t(self) -> float:
        return self.trigger_t


@_slot_twin
@dataclass(frozen=True, slots=True)
class SlowVerdict:
    trigger_t: float
    arrival_t: float
    verdict: int
    kind: ClassVar[str] = "slow_verdict"

    def __post_init__(self):
        if self.arrival_t < self.trigger_t:
            raise SchemaError("slow verdict cannot arrive before its trigger")
        if self.verdict not in (0, 1):
            raise SchemaError(f"slow verdict must be 0 (SAFE) or 1 (DANGER), got {self.verdict!r}")

    @property
    def t(self) -> float:
        return self.arrival_t


@_slot_twin
@dataclass(frozen=True, slots=True)
class Override:
    t: float
    kind: ClassVar[str] = "override"


@_slot_twin
@dataclass(frozen=True, slots=True)
class Alert:
    t_alert: float
    source: AlertSource
    kind: ClassVar[str] = "alert"

    @property
    def t(self) -> float:
        return self.t_alert


@_slot_twin
@dataclass(frozen=True, slots=True)
class RateChange:
    t: float
    new_rate: float
    kind: ClassVar[str] = "rate_change"


TraceEvent = FrameSampled | FastState | SlowDispatched | SlowVerdict | Override | Alert | RateChange


def _field_codec(name: str, tp) -> tuple:
    """(encode, decode) for the event field ``name`` of declared type ``tp``.

    An encoder of None stores the value as-is.  A float takes a JSON number
    only, and an int a JSON integer only.  A float field's decoder is None:
    ``_event_plan`` makes its one type test inline, since a trace decode runs
    it for nearly every event.
    """
    if isinstance(tp, type) and issubclass(tp, Enum):
        return attrgetter("value"), tp
    if get_origin(tp) is tuple:  # tuple[float, ...], the window's frame times
        return list, lambda xs: tuple([x if type(x) is float else _number(name, x) for x in xs])
    if tp is float:
        return None, None
    return None, lambda v: _integer(name, v)  # an int: the slow verdict


def _event_plan(cls) -> tuple:
    """One event kind's (encode, decode): ``kind`` first, then the fields in order.

    ``decode`` converts each field, builds the event through ``_unchecked``
    and then runs ``__post_init__`` where the class has one (``SlowVerdict``),
    so a decoded event is checked as a constructed one is, with the same errors.
    It first refuses a key the event does not have.  Every field is read with
    ``d[name]``, so an event of the right key count holds exactly its keys:
    one comparison passes it, and ``_check_keys`` runs only to name the key.
    """
    hints = get_type_hints(cls)
    codecs = [(f.name, *_field_codec(f.name, hints[f.name])) for f in fields(cls)]
    kind, build, check = cls.kind, cls._unchecked, getattr(cls, "__post_init__", None)
    known = ("kind", *(name for name, _, _ in codecs))
    n_keys = len(known)

    def encode(ev) -> dict:
        d = {"kind": kind}
        for name, enc, _ in codecs:
            value = getattr(ev, name)
            d[name] = value if enc is None else enc(value)
        return d

    def decode(d: dict):
        if len(d) != n_keys:
            _check_keys(d, known, f" in event {kind!r}")
        args = []
        for name, _, dec in codecs:
            v = d[name]
            args.append(dec(v) if dec is not None else v if type(v) is float else _number(name, v))
        ev = build(*args)
        if check is not None:
            check(ev)
        return ev

    return encode, decode


_EVENT_TYPES = {cls.kind: _event_plan(cls) for cls in get_args(TraceEvent)}


def event_to_dict(ev: TraceEvent) -> dict:
    kind = getattr(ev, "kind", None)
    if kind not in _EVENT_TYPES:
        raise TypeError(f"unknown event {ev!r}")
    return _EVENT_TYPES[kind][0](ev)


def event_from_dict(d: dict) -> TraceEvent:
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in _EVENT_TYPES:
        raise SchemaError(f"unknown event kind {kind!r}")
    return _EVENT_TYPES[kind][1](d)


@dataclass(frozen=True)
class DecisionTrace:
    """The full event log of one coordinator run plus its summary."""

    case_id: str
    events: tuple[TraceEvent, ...]
    end_to_end_latency: Optional[float] = None
    alert_stream_time: Optional[float] = None
    alert_source: Optional[AlertSource] = None
    aborted: bool = False

    def __post_init__(self):
        if not isinstance(self.case_id, str):
            raise SchemaError(f"case_id must be a string, got {self.case_id!r}")
        if not self.case_id:
            raise SchemaError("case_id must be non-empty")
        if not isinstance(self.aborted, bool):
            raise SchemaError(f"aborted must be a boolean, got {self.aborted!r}")

    def events_of(self, kind: type) -> list:
        return [ev for ev in self.events if isinstance(ev, kind)]

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "events": [event_to_dict(ev) for ev in self.events],
            "summary": {
                "end_to_end_latency": self.end_to_end_latency,
                "alert_stream_time": self.alert_stream_time,
                "alert_source": None if self.alert_source is None else self.alert_source.value,
                "aborted": self.aborted,
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTrace":
        """The trace for a decoded JSON object.  A key outside the trace's
        own, or outside its summary's, is refused: a misspelled ``aborted``
        would read as False and report an aborted case as a finished one."""
        try:
            _check_keys(d, _TRACE_KEYS, "")
            summary = d.get("summary", {})
            if not isinstance(summary, dict):
                raise SchemaError(f"summary must be a JSON object, got {type(summary).__name__}")
            _check_keys(summary, _SUMMARY_KEYS, " in summary")

            def time_field(name):
                v = summary.get(name)
                return v if v is None else _number(name, v)

            source = summary.get("alert_source")
            return cls(
                case_id=d["case_id"],
                events=tuple(event_from_dict(e) for e in d["events"]),
                end_to_end_latency=time_field("end_to_end_latency"),
                alert_stream_time=time_field("alert_stream_time"),
                alert_source=None if source is None else AlertSource(source),
                aborted=summary.get("aborted", False),
            )
        except DECODE_ERRORS as exc:
            raise decode_error("trace", d, exc) from exc

    def to_prediction(self) -> PredictionRecord:
        """Collapse this trace into the record the metrics pipeline consumes."""
        if self.alert_stream_time is None:
            return PredictionRecord(case_id=self.case_id, verdict="safe")
        return PredictionRecord(case_id=self.case_id, verdict="hazard",
                                timestamp=self.alert_stream_time)


_TRACE_KEYS = ("case_id", "events", "summary")
# ``physical_stop_time`` is in summaries written by older versions, which
# still load; its value is ignored.
_SUMMARY_KEYS = ("end_to_end_latency", "alert_stream_time", "alert_source", "aborted",
                 "physical_stop_time")
