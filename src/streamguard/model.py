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
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from inspect import signature
from operator import attrgetter, gt, itemgetter
from types import MemberDescriptorType
from typing import ClassVar, Optional, get_args, get_origin, get_type_hints

# Annotated timestamps are displayed at 0.1 s resolution; the deadline is
# defined as PNR - 200 ms but may be off by up to half a display tick.
DEADLINE_OFFSET = 0.2
DEADLINE_TOLERANCE = 0.05
_EPS = 1e-9
_INF = math.inf

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


def _number(name: str, v) -> float:
    """The float for a decoded number field ``name`` whose value is not one.

    An int converts.  A bool or a string is no number, though ``float()``
    reads ``true`` and ``"0.5"`` as one: it is a SchemaError naming the
    field.  A value that ``float()`` refuses keeps ``float()``'s error, and an
    int too large for a float raises OverflowError.  The per-record decoders
    call this only for a value whose type is not ``float``, so the usual
    value costs one type test.
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


def _slot_init(cls):
    """Give a slotted dataclass an ``__init__`` that stores through the slots.

    The generated ``__init__`` of a frozen dataclass stores each field with
    ``object.__setattr__(self, name, value)``, which looks the name up on the
    type on every call.  This one calls each field's slot descriptor
    ``__set__``, bound here once, in field order, then ``__post_init__`` if
    the class has one: the same steps with the same parameters, defaults and
    annotations.  A class whose generated ``__init__`` has another signature
    (a field with ``default_factory``, ``init=False`` or ``kw_only``, or an
    ``InitVar``) or a field without a slot raises TypeError here.

    It pays: a score_bulk benchmark pass takes 1.020 s with it and 1.138 s
    with the generated ``__init__``, lower in 10 of 10 pairs
    (``BENCH_fastpath_ledger.json``).
    """
    fs = fields(cls)
    names = [f.name for f in fs]
    if not all(isinstance(vars(cls).get(n), MemberDescriptorType) for n in names):
        raise TypeError(f"{cls.__name__}: every field must be a slot")
    setters = [f"_set_{n}" for n in names]
    body = "".join(f"        {s}(self, {n})\n" for s, n in zip(setters, names))
    if hasattr(cls, "__post_init__"):
        body += "        self.__post_init__()\n"
    ns = {}
    exec(f"def make({', '.join(setters)}):\n"
         f"    def __init__(self, {', '.join(names)}):\n{body}"
         f"    return __init__\n", globals(), ns)
    init = ns["make"](*(vars(cls)[n].__set__ for n in names))
    init.__defaults__ = tuple(f.default for f in fs if f.default is not MISSING) or None
    init.__annotations__ = {**{f.name: f.type for f in fs}, "return": None}
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    if signature(init) != signature(cls.__init__):
        raise TypeError(f"{cls.__name__}: cannot reproduce __init__{signature(cls.__init__)}")
    cls.__init__ = init
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


def _check_key_frame(name: str, v) -> None:
    """The check for a key frame ``name`` whose value is not a float in [0, inf)."""
    if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
        raise SchemaError(f"key frame {name} must be a finite non-negative number, got {v!r}")


@_slot_init
@dataclass(frozen=True, slots=True)
class KeyFrames:
    """The five annotated timestamps delimiting one hazard lifecycle."""

    intent_onset: float
    pnr: float
    intervention_deadline: float
    impact: float
    action_end: float

    def __post_init__(self):
        intent, pnr, deadline = self.intent_onset, self.pnr, self.intervention_deadline
        impact, end = self.impact, self.action_end
        # Each key frame in field order, so the first bad one is named; a float
        # in [0, inf) passes on its type test alone.  That test pays: a
        # score_bulk benchmark pass takes 1.020 s with it and 1.088 s calling
        # ``_check_key_frame`` for every key frame, lower in 10 of 10 pairs
        # (``BENCH_fastpath_ledger.json``).
        if not (type(intent) is float and 0.0 <= intent < _INF):
            _check_key_frame("intent_onset", intent)
        if not (type(pnr) is float and 0.0 <= pnr < _INF):
            _check_key_frame("pnr", pnr)
        if not (type(deadline) is float and 0.0 <= deadline < _INF):
            _check_key_frame("intervention_deadline", deadline)
        if not (type(impact) is float and 0.0 <= impact < _INF):
            _check_key_frame("impact", impact)
        if not (type(end) is float and 0.0 <= end < _INF):
            _check_key_frame("action_end", end)
        if (intent > deadline + _EPS or deadline > pnr + _EPS or pnr > impact + _EPS
                or impact > end + _EPS):
            raise OrderingError(
                "key frames must satisfy intent <= deadline <= pnr <= impact <= end, got "
                f"{(intent, deadline, pnr, impact, end)}"
            )
        if abs(deadline - (pnr - DEADLINE_OFFSET)) > DEADLINE_TOLERANCE + _EPS:
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
            intent = v if type(v := d["intent_onset"]) is float else _number("intent_onset", v)
            pnr = v if type(v := d["pnr"]) is float else _number("pnr", v)
            # Loaders may synthesize the deadline when the file omits it.
            if "intervention_deadline" in d:
                v = d["intervention_deadline"]
                deadline = v if type(v) is float else _number("intervention_deadline", v)
            else:
                deadline = max(pnr - DEADLINE_OFFSET, intent)
            impact = v if type(v := d["impact"]) is float else _number("impact", v)
            end = v if type(v := d["action_end"]) is float else _number("action_end", v)
            return cls(intent, pnr, deadline, impact, end)
        except DECODE_ERRORS as exc:
            raise decode_error("key_frames", d, exc) from exc


@_slot_init
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
        decoded case shares those strings instead of holding its own.  Any
        other value is kept as decoded, for ``__post_init__`` to check.
        """
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
            duration = v if type(v := d["duration"]) is float else _number("duration", v)
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

    def to_dict(self) -> dict:
        return {phase.value: score for phase, score in self.scores.items()}

    @classmethod
    def from_dict(cls, d: dict) -> "PhaseScoreTable":
        if not isinstance(d, dict):
            raise SchemaError(f"score table must be an object, got {type(d).__name__}")
        try:
            scores = {Phase(k): v if type(v) is float else _number(k, v) for k, v in d.items()}
        except (TypeError, ValueError, OverflowError, SchemaError) as exc:
            raise SchemaError(f"bad score table entry: {exc}") from exc
        return cls(scores)


@_slot_init
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

    @property
    def effective_timestamp(self) -> Optional[float]:
        """Hazard timestamp, or None for Safe / unparseable records."""
        return self.timestamp if self.is_hazard else None

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
        """
        try:
            case_id = d["case_id"]
            verdict = _SHARED.get(v, v) if type(v := d["verdict"]) is str else v
            timestamp = d.get("timestamp")
            if not (timestamp is None or type(timestamp) is float):
                timestamp = _number("timestamp", timestamp)
            claim = _SHARED.get(v, v) if type(v := d.get("severity_claim")) is str else v
            status = _SHARED.get(v, v) if type(v := d.get("parse_status", "ok")) is str else v
            return cls(case_id, verdict, timestamp, claim, d.get("reasoning_text", ""),
                       d.get("raw_output", ""), status, d.get("parse_detail", ""))
        except DECODE_ERRORS as exc:
            raise decode_error("prediction", d, exc) from exc


@_slot_init
@dataclass(frozen=True, slots=True)
class Frame:
    """A single timestamped frame; the payload lives in an external file.

    Slotted: every lookup builds one, and without a ``__dict__`` it is both
    smaller and quicker to build.
    """

    t: float
    image_path: str = ""

    @classmethod
    def from_dict(cls, d: dict) -> "Frame":
        try:
            t = v if type(v := d["t"]) is float else _number("t", v)
            image_path = d.get("image_path", "")
            if not isinstance(image_path, str):
                raise SchemaError(f"image_path must be a string, got {image_path!r}")
            return cls(t=t, image_path=image_path)
        except DECODE_ERRORS as exc:
            raise decode_error("frame", d, exc) from exc


# What ``FrameManifest.from_dict`` takes and type-tests its columns with.  The
# paths stay a list comprehension: on CPython 3.11 ``methodcaller`` is slower.
_frame_time = itemgetter("t")
_FLOAT, _STR = frozenset({float}), frozenset({str})


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
        frames = tuple(map(Frame, self._times, self._paths))
        object.__setattr__(self, "frames", frames)
        return frames

    @property
    def duration(self) -> float:
        return self._times[-1]

    def latest_frame_at(self, t: float) -> Frame:
        """The last frame with timestamp <= t + _EPS (the first frame if none).

        A binary search over the times column, O(log n), that returns a new
        ``Frame`` equal to ``frames[i]``, built from the two columns.
        """
        i = max(bisect_right(self._times, t + _EPS) - 1, 0)
        return Frame(self._times[i], self._paths[i])

    def frames_at(self, times) -> list[Frame]:
        """``[self.latest_frame_at(t) for t in times]``, in one forward walk.

        The first probe bisects the times column; each later one steps
        forward while the next frame time is <= t + _EPS.  A probe that is
        not >= the one before (lower, or NaN) bisects again, so any order of
        ``times`` gives the same frames; non-decreasing probes, such as one
        window's frame times, cost one bisect plus the walk.  A corpus
        benchmark pass takes 0.633 s with the walk and 0.685 s with a bisect
        per time, lower in 10 of 10 pairs (``BENCH_fastpath_ledger.json``).
        """
        col, paths = self._times, self._paths
        last = len(col) - 1
        out = []
        i = 0
        prev = math.nan  # compares false, so the first probe bisects
        for t in times:
            bound = t + _EPS
            if t >= prev:
                while i < last and col[i + 1] <= bound:
                    i += 1
            else:
                i = max(bisect_right(col, bound) - 1, 0)
            prev = t
            out.append(Frame(col[i], paths[i]))
        return out

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "fps_native": self.fps_native,
            "frames": [{"t": t, "image_path": p} for t, p in zip(self._times, self._paths)],
            "pre_overlaid": self.pre_overlaid,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FrameManifest":
        """Decode straight into the two columns.

        Each column is taken whole and then type-tested once; a column with a
        value of another type goes element by element, and a bad frame is
        named by ``Frame.from_dict``.  The stream checks are ``_check_stream``,
        as in ``__init__``.
        """
        try:
            case_id = d["case_id"]
            fps_native = v if type(v := d.get("fps_native", 10.0)) is float \
                else _number("fps_native", v)
            entries = d["frames"]
            try:
                times = tuple(map(_frame_time, entries))
                if set(map(type, times)) != _FLOAT:
                    times = tuple([t if type(t) is float else _number("t", t) for t in times])
                paths = tuple([f.get("image_path", "") for f in entries])
                if set(map(type, paths)) != _STR and not all(isinstance(p, str) for p in paths):
                    raise SchemaError("image_path must be a string")
            except DECODE_ERRORS:
                for f in entries:  # the per-frame decoder names the bad entry
                    Frame.from_dict(f)
                raise
            pre_overlaid = d.get("pre_overlaid", True)
        except DECODE_ERRORS as exc:
            raise decode_error("manifest", d, exc) from exc
        _check_stream(case_id, times, pre_overlaid)
        # Bypasses __init__: ``frames`` stays unset until its first read.
        m = object.__new__(cls)
        vars(m).update(case_id=case_id, fps_native=fps_native, pre_overlaid=pre_overlaid,
                       _times=times, _paths=paths)
        return m


# --- Trace events ------------------------------------------------------------
# Slotted, like ``Frame``: the coordinator builds two or more per sample.
# ``kind`` names the event on the wire; it is a class attribute, not a field.

@_slot_init
@dataclass(frozen=True, slots=True)
class FrameSampled:
    t: float
    rate: float
    kind: ClassVar[str] = "frame_sampled"


@_slot_init
@dataclass(frozen=True, slots=True)
class FastState:
    t: float
    state: SafetyState
    fast_latency: float
    kind: ClassVar[str] = "fast_state"


@_slot_init
@dataclass(frozen=True, slots=True)
class SlowDispatched:
    trigger_t: float
    window_frame_times: tuple[float, ...]
    kind: ClassVar[str] = "slow_dispatched"

    @property
    def t(self) -> float:
        return self.trigger_t


@_slot_init
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


@_slot_init
@dataclass(frozen=True, slots=True)
class Override:
    t: float
    kind: ClassVar[str] = "override"


@_slot_init
@dataclass(frozen=True, slots=True)
class Alert:
    t_alert: float
    source: AlertSource
    kind: ClassVar[str] = "alert"

    @property
    def t(self) -> float:
        return self.t_alert


@_slot_init
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
    """One event kind's (encode, decode): ``kind`` first, then the fields in order."""
    hints = get_type_hints(cls)
    codecs = [(f.name, *_field_codec(f.name, hints[f.name])) for f in fields(cls)]
    kind = cls.kind

    def encode(ev) -> dict:
        d = {"kind": kind}
        for name, enc, _ in codecs:
            value = getattr(ev, name)
            d[name] = value if enc is None else enc(value)
        return d

    def decode(d: dict):
        args = []
        for name, _, dec in codecs:
            v = d[name]
            args.append(dec(v) if dec is not None else v if type(v) is float else _number(name, v))
        return cls(*args)

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
        try:
            summary = d.get("summary", {})

            def time_field(name):
                v = summary.get(name)
                return v if v is None or type(v) is float else _number(name, v)

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
