"""Core domain types shared by the coordinator and the evaluation harness.

Everything here is an immutable value object with a canonical JSON
encoding (snake_case field names).  The JSON dicts produced by
``to_dict`` round-trip exactly through the matching ``from_dict``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter
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


def format_stream_time(seconds: float) -> str:
    """Render a stream time the way it is burned onto frames: ``t=X.Xs``."""
    if seconds < 0:
        raise ValueError(f"stream time must be non-negative, got {seconds}")
    return f"t={seconds:.1f}s"


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
        if "intervention_deadline" in d:
            deadline = d["intervention_deadline"]
        else:
            # Loaders may synthesize the deadline when the file omits it.
            deadline = max(float(d["pnr"]) - DEADLINE_OFFSET, float(d["intent_onset"]))
        return cls(
            intent_onset=float(d["intent_onset"]),
            pnr=float(d["pnr"]),
            intervention_deadline=float(deadline),
            impact=float(d["impact"]),
            action_end=float(d["action_end"]),
        )


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
        if any(e != e.lower() or not e for e in self.key_entities):
            raise SchemaError(f"case {self.case_id}: key_entities must be non-empty lowercase strings")

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
            return cls(
                case_id=str(d["case_id"]),
                location=d["location"],
                danger_category=d["danger_category"],
                severity=d["severity"],
                difficulty=d["difficulty"],
                key_frames=KeyFrames.from_dict(d["key_frames"]),
                key_entities=tuple(d.get("key_entities", [])),
                duration=float(d["duration"]),
                is_valid=bool(d.get("is_valid", True)),
            )
        except KeyError as exc:
            raise SchemaError(f"missing field {exc} in case {d.get('case_id', '?')}") from exc


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


@dataclass(frozen=True)
class Frame:
    """A single timestamped frame; the payload lives in an external file."""

    t: float
    image_path: str = ""

    def to_dict(self) -> dict:
        return {"t": self.t, "image_path": self.image_path}

    @classmethod
    def from_dict(cls, d: dict) -> "Frame":
        return cls(t=float(d["t"]), image_path=d.get("image_path", ""))


@dataclass(frozen=True)
class FrameManifest:
    """The frame stream for one case, standing in for the camera."""

    case_id: str
    fps_native: float
    frames: tuple[Frame, ...]
    pre_overlaid: bool = True

    def __post_init__(self):
        if not self.frames:
            raise SchemaError(f"manifest for {self.case_id} has no frames")
        times = [f.t for f in self.frames]
        if any(a > b for a, b in zip(times, times[1:])):
            raise SchemaError(f"manifest for {self.case_id} frames not time-ordered")

    @property
    def duration(self) -> float:
        return self.frames[-1].t

    def latest_frame_at(self, t: float) -> Frame:
        """The most recent frame with timestamp <= t (the first frame if none)."""
        best = self.frames[0]
        for frame in self.frames:
            if frame.t <= t + _EPS:
                best = frame
            else:
                break
        return best

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "fps_native": self.fps_native,
            "frames": [f.to_dict() for f in self.frames],
            "pre_overlaid": self.pre_overlaid,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FrameManifest":
        return cls(
            case_id=str(d["case_id"]),
            fps_native=float(d.get("fps_native", 10.0)),
            frames=tuple(Frame.from_dict(f) for f in d["frames"]),
            pre_overlaid=bool(d.get("pre_overlaid", True)),
        )


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
