"""Core domain types shared by the coordinator and the evaluation harness.

Everything here is an immutable value object with a canonical JSON
encoding (snake_case field names).  The JSON dicts produced by
``to_dict`` round-trip exactly through the matching ``from_dict``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter, gt
from threading import Lock
from typing import Optional, get_args, get_origin, get_type_hints

# Annotated timestamps are displayed at 0.1 s resolution; the deadline is
# defined as PNR - 200 ms but may be off by up to half a display tick.
DEADLINE_OFFSET = 0.2
DEADLINE_TOLERANCE = 0.05
_EPS = 1e-9

LOCATIONS = ("bedroom", "bathroom", "living_room", "dining_room", "study", "balcony")
DANGER_CATEGORIES = ("C1", "C2", "C3", "C4")
SEVERITY_LEVELS = ("L1", "L2", "L3", "L4")
DIFFICULTY_LEVELS = ("D1", "D2", "D3")


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
DECODE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, SchemaError)


def decode_error(what: str, d, exc: Exception) -> SchemaError:
    """The one-line SchemaError for a JSON value ``d`` that did not decode as ``what``."""
    if not isinstance(d, dict):
        return SchemaError(f"{what} must be a JSON object, got {type(d).__name__}")
    if "case_id" in d:
        what = f"{what} {d['case_id']}"
    if isinstance(exc, KeyError):
        return SchemaError(f"missing field {exc} in {what}")
    return SchemaError(f"{what}: {exc}")


class SafetyState(str, Enum):
    GREEN = "green"
    YELLOW = "yellow"
    RED = "red"


class BinaryDecision(int, Enum):
    NOMINAL = 0
    INTERVENE = 1


class Phase(str, Enum):
    PREMATURE = "premature"
    OPTIMAL = "optimal"
    SUBOPTIMAL = "suboptimal"
    IRREVERSIBLE = "irreversible"
    MISSED = "missed"


class AlertSource(str, Enum):
    FAST = "fast"
    SLOW = "slow"


@dataclass(frozen=True)
class KeyFrames:
    """The five annotated timestamps delimiting one hazard lifecycle."""

    intent_onset: float
    pnr: float
    intervention_deadline: float
    impact: float
    action_end: float

    def __post_init__(self):
        for name in ("intent_onset", "pnr", "intervention_deadline", "impact", "action_end"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
                raise SchemaError(f"key frame {name} must be a finite non-negative number, got {v!r}")
        ordered = (
            self.intent_onset,
            self.intervention_deadline,
            self.pnr,
            self.impact,
            self.action_end,
        )
        if any(a > b + _EPS for a, b in zip(ordered, ordered[1:])):
            raise OrderingError(
                "key frames must satisfy intent <= deadline <= pnr <= impact <= end, got "
                f"{ordered}"
            )
        if abs(self.intervention_deadline - (self.pnr - DEADLINE_OFFSET)) > DEADLINE_TOLERANCE + _EPS:
            raise DeadlineError(
                f"deadline {self.intervention_deadline} not within {DEADLINE_TOLERANCE}s of "
                f"pnr - {DEADLINE_OFFSET} = {self.pnr - DEADLINE_OFFSET}"
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
            intent, pnr = float(d["intent_onset"]), float(d["pnr"])
            # Loaders may synthesize the deadline when the file omits it.
            deadline = (float(d["intervention_deadline"]) if "intervention_deadline" in d
                        else max(pnr - DEADLINE_OFFSET, intent))
            return cls(intent_onset=intent, pnr=pnr, intervention_deadline=deadline,
                       impact=float(d["impact"]), action_end=float(d["action_end"]))
        except DECODE_ERRORS as exc:
            raise decode_error("key_frames", d, exc) from exc


@dataclass(frozen=True)
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
        if not self.case_id:
            raise SchemaError("case_id must be non-empty")
        if self.location not in LOCATIONS:
            raise SchemaError(f"unknown location {self.location!r} for case {self.case_id}")
        if self.danger_category not in DANGER_CATEGORIES:
            raise SchemaError(f"unknown danger_category {self.danger_category!r} for case {self.case_id}")
        if self.severity not in SEVERITY_LEVELS:
            raise SchemaError(f"unknown severity {self.severity!r} for case {self.case_id}")
        if self.difficulty not in DIFFICULTY_LEVELS:
            raise SchemaError(f"unknown difficulty {self.difficulty!r} for case {self.case_id}")
        if self.key_frames.action_end > self.duration + _EPS:
            raise OrderingError(
                f"action_end {self.key_frames.action_end} exceeds duration {self.duration} "
                f"for case {self.case_id}"
            )
        if self.difficulty in ("D1", "D2") and not self.key_entities:
            raise SchemaError(
                f"case {self.case_id}: key_entities required for {self.difficulty} cases"
            )
        if any(not isinstance(e, str) or e != e.lower() or not e for e in self.key_entities):
            raise SchemaError(f"case {self.case_id}: key_entities must be non-empty lowercase strings")
        if not isinstance(self.is_valid, bool):
            raise SchemaError(f"case {self.case_id}: is_valid must be a boolean, got {self.is_valid!r}")

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
        try:
            entities = d.get("key_entities", [])
            if not isinstance(entities, list):
                raise TypeError(f"key_entities must be a list of strings, got {entities!r}")
            kw = dict(
                case_id=str(d["case_id"]),
                location=d["location"],
                danger_category=d["danger_category"],
                severity=d["severity"],
                difficulty=d["difficulty"],
                key_frames=KeyFrames.from_dict(d["key_frames"]),
                key_entities=tuple(entities),
                duration=float(d["duration"]),
                is_valid=d.get("is_valid", True),
            )
        except DECODE_ERRORS as exc:
            raise decode_error("case", d, exc) from exc
        except (OrderingError, DeadlineError) as exc:
            # Raised only by the key frames, which do not know their case.
            raise type(exc)(f"case {d['case_id']}: {exc}") from exc
        return cls(**kw)


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
            scores = {Phase(k): float(v) for k, v in d.items()}
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad score table entry: {exc}") from exc
        return cls(scores)


@dataclass(frozen=True)
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
        if self.verdict not in ("safe", "hazard"):
            raise SchemaError(f"verdict must be 'safe' or 'hazard', got {self.verdict!r}")
        if self.verdict == "hazard":
            if self.timestamp is None or not math.isfinite(self.timestamp) or self.timestamp < 0:
                raise SchemaError(
                    f"hazard verdict requires a finite non-negative timestamp, got {self.timestamp!r}"
                )
        if self.severity_claim is not None and self.severity_claim not in ("none",) + SEVERITY_LEVELS:
            raise SchemaError(f"unknown severity_claim {self.severity_claim!r}")
        if self.parse_status not in ("ok", "format_error"):
            raise SchemaError(f"unknown parse_status {self.parse_status!r}")

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
        try:
            return cls(
                case_id=str(d["case_id"]),
                verdict=d["verdict"],
                timestamp=None if d.get("timestamp") is None else float(d["timestamp"]),
                severity_claim=d.get("severity_claim"),
                reasoning_text=d.get("reasoning_text", ""),
                raw_output=d.get("raw_output", ""),
                parse_status=d.get("parse_status", "ok"),
                parse_detail=d.get("parse_detail", ""),
            )
        except DECODE_ERRORS as exc:
            raise decode_error("prediction", d, exc) from exc


@dataclass(frozen=True)
class Frame:
    """A single timestamped frame; the payload lives in an external file."""

    t: float
    image_path: str = ""

    @classmethod
    def from_dict(cls, d: dict) -> "Frame":
        try:
            return cls(t=float(d["t"]), image_path=d.get("image_path", ""))
        except DECODE_ERRORS as exc:
            raise decode_error("frame", d, exc) from exc


def _check_stream(case_id: str, times: tuple, pre_overlaid) -> None:
    """The manifest invariants, over the frame times as one column."""
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


# Serializes building a decoded manifest's Frame objects, so that each index
# gets one object even under concurrent lookups.  Taken once per built frame.
_FRAME_BUILD_LOCK = Lock()


@dataclass(frozen=True)
class FrameManifest:
    """The frame stream for one case, standing in for the camera.

    Besides the fields, every manifest keeps its frame times as a flat tuple
    (``_times``), which ``latest_frame_at`` bisects and ``duration`` and
    ``to_dict`` read.  None of this is part of the value: ``==``, ``hash``,
    ``repr`` and ``replace`` see only the fields.

    ``from_dict`` decodes straight into that column and one of image paths
    (``_paths``), and builds no ``Frame`` up front: ``latest_frame_at``
    builds one per index on its first lookup, and ``frames`` is built on its
    first read from the same objects, so ``latest_frame_at(t) is frames[i]``
    holds in either order.  Once ``frames`` exists, ``_paths`` is dropped.
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
        object.__setattr__(self, "_paths", None)
        object.__setattr__(self, "_slots", self.frames)

    def __getattr__(self, name: str):
        # Reached only on a miss: the ``frames`` of a decoded manifest before
        # its first read, or a name the class does not have.
        if name != "frames":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        with _FRAME_BUILD_LOCK:
            frames = self.__dict__.get("frames")
            if frames is None:
                frames = tuple(f if f is not None else Frame(t, p)
                               for f, t, p in zip(self._slots, self._times, self._paths))
                object.__setattr__(self, "frames", frames)
                object.__setattr__(self, "_slots", frames)
                object.__setattr__(self, "_paths", None)
        return frames

    @property
    def duration(self) -> float:
        return self._times[-1]

    def latest_frame_at(self, t: float) -> Frame:
        """The last frame with timestamp <= t + _EPS (the first frame if none).

        A binary search over the frame times column: O(log n).  On a decoded
        manifest the ``Frame`` at that index is built on its first lookup and
        memoised, so every lookup of it returns ``frames[i]`` itself.
        """
        i = max(bisect_right(self._times, t + _EPS) - 1, 0)
        frame = self._slots[i]
        if frame is None:
            with _FRAME_BUILD_LOCK:
                frame = self._slots[i]  # the slots may have become ``frames``
                if frame is None:
                    frame = self._slots[i] = Frame(self._times[i], self._paths[i])
        return frame

    def to_dict(self) -> dict:
        paths = self._paths if self._paths is not None else [f.image_path for f in self.frames]
        return {
            "case_id": self.case_id,
            "fps_native": self.fps_native,
            "frames": [{"t": t, "image_path": p} for t, p in zip(self._times, paths)],
            "pre_overlaid": self.pre_overlaid,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FrameManifest":
        try:
            case_id = str(d["case_id"])
            fps_native = float(d.get("fps_native", 10.0))
            entries = d["frames"]
            try:
                times = tuple([float(f["t"]) for f in entries])
                paths = tuple([f.get("image_path", "") for f in entries])
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
                       _times=times, _paths=paths, _slots=[None] * len(times))
        return m


# --- Trace events ------------------------------------------------------------

@dataclass(frozen=True)
class FrameSampled:
    t: float
    rate: float
    kind: str = field(default="frame_sampled", init=False)


@dataclass(frozen=True)
class FastState:
    t: float
    state: SafetyState
    fast_latency: float
    kind: str = field(default="fast_state", init=False)


@dataclass(frozen=True)
class SlowDispatched:
    trigger_t: float
    window_frame_times: tuple[float, ...]
    kind: str = field(default="slow_dispatched", init=False)

    @property
    def t(self) -> float:
        return self.trigger_t


@dataclass(frozen=True)
class SlowVerdict:
    trigger_t: float
    arrival_t: float
    verdict: int
    kind: str = field(default="slow_verdict", init=False)

    def __post_init__(self):
        if self.arrival_t < self.trigger_t:
            raise SchemaError("slow verdict cannot arrive before its trigger")

    @property
    def t(self) -> float:
        return self.arrival_t


@dataclass(frozen=True)
class Override:
    t: float
    kind: str = field(default="override", init=False)


@dataclass(frozen=True)
class Alert:
    t_alert: float
    source: AlertSource
    kind: str = field(default="alert", init=False)

    @property
    def t(self) -> float:
        return self.t_alert


@dataclass(frozen=True)
class RateChange:
    t: float
    new_rate: float
    kind: str = field(default="rate_change", init=False)


TraceEvent = FrameSampled | FastState | SlowDispatched | SlowVerdict | Override | Alert | RateChange


def _field_codec(tp) -> tuple:
    """(encode, decode) for one declared event field type; None encodes as-is."""
    if isinstance(tp, type) and issubclass(tp, Enum):
        return attrgetter("value"), tp
    if get_origin(tp) is tuple:
        item = get_args(tp)[0]
        return list, lambda xs: tuple(map(item, xs))
    return None, tp


def _event_plan(cls) -> tuple:
    """One event kind's (encode, decode): ``kind`` first, then the fields in order."""
    hints = get_type_hints(cls)
    codecs = [(f.name, *_field_codec(hints[f.name])) for f in fields(cls) if f.init]
    kind = cls.kind

    def encode(ev) -> dict:
        d = {"kind": kind}
        for name, enc, _ in codecs:
            value = getattr(ev, name)
            d[name] = value if enc is None else enc(value)
        return d

    def decode(d: dict):
        return cls(**{name: dec(d[name]) for name, _, dec in codecs})

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
    physical_stop_time: Optional[float] = None
    aborted: bool = False

    @property
    def decision(self) -> BinaryDecision:
        return BinaryDecision.INTERVENE if self.alert_stream_time is not None else BinaryDecision.NOMINAL

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
                "physical_stop_time": self.physical_stop_time,
                "aborted": self.aborted,
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DecisionTrace":
        summary = d.get("summary", {})
        source = summary.get("alert_source")
        return cls(
            case_id=str(d["case_id"]),
            events=tuple(event_from_dict(e) for e in d["events"]),
            end_to_end_latency=summary.get("end_to_end_latency"),
            alert_stream_time=summary.get("alert_stream_time"),
            alert_source=None if source is None else AlertSource(source),
            physical_stop_time=summary.get("physical_stop_time"),
            aborted=bool(summary.get("aborted", False)),
        )

    def to_prediction(self) -> PredictionRecord:
        """Collapse this trace into the record the metrics pipeline consumes."""
        if self.alert_stream_time is None:
            return PredictionRecord(case_id=self.case_id, verdict="safe")
        return PredictionRecord(case_id=self.case_id, verdict="hazard",
                                timestamp=self.alert_stream_time)
