"""Shared fixtures: annotation builders, scripted schedules, a virtual wall
clock, the per-metric functions the cross-metric identities check
``build_report`` against, the published-row inverter used to reconstruct
aggregate metrics, and reference copies of the prompt render, the
manifest, annotation case and trace event decodes, and the trace's JSON
object."""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import MISSING, fields
from enum import Enum
from typing import Optional, Sequence, get_args, get_origin, get_type_hints

from streamguard.annotations import classify_phase
from streamguard.backends import ScriptedBackend
from streamguard.metrics import EmptyDataset, _join, _pred_map, build_report
from streamguard.model import (
    _SHARED,
    DECODE_ERRORS,
    CaseAnnotation,
    DeadlineError,
    Frame,
    FrameManifest,
    KeyFrames,
    OrderingError,
    Phase,
    PhaseScoreTable,
    PredictionRecord,
    SchemaError,
    TraceEvent,
    _check_keys,
    _check_stream,
    _integer,
    _number,
    decode_error,
)


def make_ann(case_id="case-1", intent=3.6, deadline=3.8, pnr=4.0, impact=4.5,
             end=5.0, duration=6.0, location="living_room", category="C4",
             severity="L2", difficulty="D1", entities=("kettle",), is_valid=True):
    return CaseAnnotation(
        case_id=case_id,
        location=location,
        danger_category=category,
        severity=severity,
        difficulty=difficulty,
        key_frames=KeyFrames(intent_onset=intent, pnr=pnr,
                             intervention_deadline=deadline, impact=impact,
                             action_end=end),
        key_entities=tuple(entities),
        duration=duration,
        is_valid=is_valid,
    )


def ann_set(*anns) -> dict:
    """The annotations keyed by ``case_id``, in order, as ``load_annotations`` returns them."""
    return {a.case_id: a for a in anns}


def grid_manifest(case_id="case-1", duration=5.0, step=0.1, times=None) -> FrameManifest:
    """Manifest with frames on a regular grid, or at explicit times."""
    if times is None:
        n = int(round(duration / step))
        times = [round(i * step, 6) for i in range(n + 1)]
    frames = tuple(Frame(t=t, image_path=f"{case_id}/{t:.2f}.jpg") for t in times)
    return FrameManifest(case_id=case_id, fps_native=1.0 / step, frames=frames)


def fast_script(rules, **faults) -> ScriptedBackend:
    """rules: (t0, t1, state) or (t0, t1, state, latency) tuples; faults: the
    script's ``malformed`` and ``timeout`` interval lists."""
    sched = []
    for rule in rules:
        t0, t1, state = rule[:3]
        sched.append({"t_start": t0, "t_end": t1, "state": state, "reason": f"scripted {state}"})
        if len(rule) > 3:
            sched[-1]["latency"] = rule[3]
    return ScriptedBackend({"fast_schedule": sched, "faults": faults})


def slow_script(rules) -> ScriptedBackend:
    """rules: (t0, t1, verdict, latency) tuples keyed on trigger time."""
    return ScriptedBackend({"slow_responses": [
        {"t_start": t0, "t_end": t1, "verdict": v, "latency": lat} for t0, t1, v, lat in rules
    ]})


# --- virtual wall clock -------------------------------------------------------

class VirtualWallClock:
    """``coordinator.WallClock`` on virtual time, with no thread and no sleep.

    Time moves only in ``wait_until``.  ``submit`` calls ``fn`` at once, as
    the idle worker thread would start it, and its future completes when
    virtual time reaches dispatch time plus the latency ``fn`` reports; a
    failed call's abort reason (``backends.call_backend``) completes it at
    once.  ``result()`` on a future still in flight waits until it is due.
    Tests put it in place of ``WallClock`` with
    ``monkeypatch.setitem(coordinator._CLOCKS, "real", ...)``.
    """

    def __init__(self):
        self._now = 0.0
        self._in_flight: list = []  # futures not yet due, in dispatch order
        self.shutdowns = 0

    def now(self) -> float:
        return self._now

    def wait_until(self, t: float) -> None:
        if t > self._now:
            self._now = t
            self._complete_due()

    def submit(self, fn, *args) -> Future:
        future = _VirtualFuture(self)
        future.reply = reply = fn(*args)
        # A reply is due after its reported latency, a failure at once.
        future.due = self._now + (0.0 if type(reply) is str else reply[1])
        self._in_flight.append(future)
        self._complete_due()
        return future

    def shutdown(self) -> None:
        self.shutdowns += 1

    def _complete_due(self) -> None:
        for future in [f for f in self._in_flight if f.due <= self._now]:
            self._in_flight.remove(future)
            if not future.cancelled():
                future.set_result(future.reply)


class _VirtualFuture(Future):
    def __init__(self, clock: VirtualWallClock):
        super().__init__()
        self._clock = clock

    def result(self, timeout=None):
        if not self.done():
            self._clock.wait_until(self.due)
        return super().result(timeout)


# --- per-metric functions ----------------------------------------------------

def compute_hdr(preds: Sequence[PredictionRecord], n_total: int) -> float:
    """Fraction of cases predicted as hazardous, regardless of timing."""
    if n_total < 1:
        raise EmptyDataset("n_total must be >= 1")
    _pred_map(preds)
    return sum(1 for p in preds if p.is_hazard) / n_total


def compute_ewp(preds: Sequence[PredictionRecord], anns: dict) -> Optional[float]:
    """Fraction of hazard alerts inside [intent onset, impact].

    Undefined (None) when there are no hazard predictions.
    """
    return build_report(preds, anns).ewp


def phase_counts(preds: Sequence[PredictionRecord], anns: dict) -> dict:
    """Per-phase case counts over the full annotation set.

    Every annotated case lands in exactly one phase; cases without a
    hazard prediction (including format errors) are Missed.
    """
    counts = {phase: 0 for phase in Phase}
    for ann, pred in _join(preds, anns):
        t = pred.timestamp if pred is not None and pred.is_hazard else None
        counts[classify_phase(t, ann)] += 1
    return counts


def compute_pda(preds: Sequence[PredictionRecord], anns: dict) -> dict:
    """Phase fractions over the annotation set; fractions sum to 1."""
    return build_report(preds, anns).phase_fractions


def compute_wss(preds: Sequence[PredictionRecord], anns: dict,
                scores: Optional[PhaseScoreTable] = None) -> float:
    """Mean phase score over all cases."""
    return build_report(preds, anns, scores).wss


# --- published-row inversion -------------------------------------------------

# Representative timestamps, one per phase, against the template annotation
# (intent 3.6 / deadline 3.8 / pnr 4.0 / impact 4.5).
_PHASE_TIMES = {"premature": 2.0, "optimal": 3.7, "suboptimal": 3.9,
                "irreversible": 4.2, "after_impact": 4.8}


def invert_row(hdr_pct: float, premature_pct: float, optimal_pct: float,
               suboptimal_pct: float, irreversible_pct: float,
               n_total: int = 438):
    """Build a per-case prediction set whose aggregates match a published row.

    Phase counts are the published percentages of ``n_total`` rounded to
    integers; the missed bucket absorbs the remainder and splits into
    absent predictions (per the detection rate) and late alerts.
    """
    c_pre = round(premature_pct * n_total / 100.0)
    c_opt = round(optimal_pct * n_total / 100.0)
    c_sub = round(suboptimal_pct * n_total / 100.0)
    c_irr = round(irreversible_pct * n_total / 100.0)
    c_missed = n_total - (c_pre + c_opt + c_sub + c_irr)
    n_hazard = round(hdr_pct * n_total / 100.0)
    n_safe = n_total - n_hazard
    c_after = c_missed - n_safe
    if c_after < 0:
        raise ValueError("row is internally inconsistent: more safe cases than missed")

    plan = ([("premature", c_pre), ("optimal", c_opt), ("suboptimal", c_sub),
             ("irreversible", c_irr), ("after_impact", c_after)])
    anns = []
    preds = []
    idx = 0
    for phase_name, count in plan:
        for _ in range(count):
            cid = f"case-{idx:04d}"
            anns.append(make_ann(case_id=cid))
            preds.append(PredictionRecord(case_id=cid, verdict="hazard",
                                          timestamp=_PHASE_TIMES[phase_name]))
            idx += 1
    for _ in range(n_safe):
        cid = f"case-{idx:04d}"
        anns.append(make_ann(case_id=cid))
        preds.append(PredictionRecord(case_id=cid, verdict="safe"))
        idx += 1
    return preds, ann_set(*anns)


# --- reference copies ---------------------------------------------------------
# The straightforward forms of the hot paths, kept as the oracles their
# differential tests compare the program against.  The manifest decode is the
# two-pass form the one-pass decoder replaced: column comprehensions, then a
# per-frame decoder that names the bad entry.  The event decode is the loop
# over the fields that the generated decoders replaced.

def reference_render(name: str, text: str, frames, pre_overlaid: bool,
                     start: Optional[float] = None, end: Optional[float] = None) -> str:
    """``PromptTemplate.render`` as two ``str.replace`` scans of the text."""
    out = text
    if "<Start>" in text:
        if start is None:
            raise ValueError(f"prompt {name} needs a start time")
        out = out.replace("<Start>", f"{start:.1f}")
    if "<End>" in text:
        if end is None:
            raise ValueError(f"prompt {name} needs an end time")
        out = out.replace("<End>", f"{end:.1f}")
    if not pre_overlaid:
        listing = ", ".join(f"{f.t:.1f}s" for f in frames)
        out = out + f"\n\nFrame timestamps (in order): {listing}\n"
    return out


_FRAME_ENTRY_KEYS = ("t", "image_path")


def _unknown_key(d: dict, known: tuple) -> None:
    """Refuse the first key of ``d`` outside ``known``, as the decoders do."""
    unknown = [k for k in d if k not in known]
    if unknown:
        raise SchemaError(f"unknown key {unknown[0]!r} (known: {', '.join(known)})")


def _reference_frame_decode(i: int, d) -> Frame:
    """Frame entry ``i``, decoded alone; a bad one is named ``frame <i>``.
    Its ``t``, then its ``image_path``, then any other key is refused."""
    what = f"frame {i}"
    if not isinstance(d, dict):
        raise SchemaError(f"{what} must be a JSON object, got {type(d).__name__}")
    try:
        t = v if type(v := d["t"]) is float else _number("t", v)
        image_path = d.get("image_path", "")
        if not isinstance(image_path, str):
            raise SchemaError(f"image_path must be a string, got {image_path!r}")
        _unknown_key(d, _FRAME_ENTRY_KEYS)
        return Frame(t=t, image_path=image_path)
    except KeyError as exc:
        raise SchemaError(f"missing field {exc} in {what}") from exc
    except DECODE_ERRORS as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def reference_manifest_decode(d) -> tuple:
    """``FrameManifest.from_dict`` as two passes: every frame's columns, and on
    a failure ``_reference_frame_decode`` entry by entry to name the bad one;
    then the stream checks.  A key outside the four a manifest holds is
    refused first, and an entry with a key outside its two fails the
    columns pass.  ``(case_id, fps_native, times, paths, pre_overlaid)``,
    or the same error."""
    try:
        _unknown_key(d, ("case_id", "fps_native", "frames", "pre_overlaid"))
        case_id = d["case_id"]
        fps_native = v if type(v := d.get("fps_native", 10.0)) is float \
            else _number("fps_native", v)
        entries = d["frames"]
        try:
            times = tuple([t if type(t := f["t"]) is float else _number("t", t)
                           for f in entries])
            paths = tuple([f.get("image_path", "") for f in entries])
            if not all(isinstance(p, str) for p in paths):
                raise SchemaError("image_path must be a string")
            if not all(set(f) <= set(_FRAME_ENTRY_KEYS) for f in entries):
                raise SchemaError("unknown key in a frame")
        except DECODE_ERRORS:
            for i, f in enumerate(entries):
                _reference_frame_decode(i, f)
            raise
        pre_overlaid = d.get("pre_overlaid", True)
    except DECODE_ERRORS as exc:
        raise decode_error("manifest", d, exc) from exc
    _check_stream(case_id, times, pre_overlaid)
    return case_id, fps_native, times, paths, pre_overlaid


_CASE_FIELDS = ("case_id", "location", "danger_category", "severity", "difficulty",
                "key_frames", "key_entities", "duration", "is_valid")


def reference_case_decode(d) -> CaseAnnotation:
    """``CaseAnnotation.from_dict`` by the constructor path: the fields read
    as decoded, ``KeyFrames.from_dict``, then ``CaseAnnotation(...)``, whose
    ``__post_init__`` checks every value.  A key outside the case's nine is
    refused first; ``KeyFrames.from_dict`` refuses one outside its five.
    The same case, or the same error."""
    try:
        _unknown_key(d, _CASE_FIELDS)
        entities = d.get("key_entities", [])
        if not isinstance(entities, list):
            raise TypeError(f"key_entities must be a list of strings, got {entities!r}")
        case_id = d["case_id"]
        closed = [_SHARED.get(v, v) if type(v) is str else v
                  for v in (d["location"], d["danger_category"], d["severity"], d["difficulty"])]
        key_frames = KeyFrames.from_dict(d["key_frames"])
        duration = v if type(v := d["duration"]) is float else _number("duration", v)
        is_valid = d.get("is_valid", True)
    except DECODE_ERRORS as exc:
        raise decode_error("case", d, exc) from exc
    except (OrderingError, DeadlineError) as exc:
        raise type(exc)(f"case {d['case_id']}: {exc}") from exc
    return CaseAnnotation(case_id, *closed, key_frames, tuple(entities), duration, is_valid)


_EVENT_CLASSES = {cls.kind: cls for cls in get_args(TraceEvent)}


def _reference_field_decoder(name: str, tp):
    """The decoder for the event field ``name`` of declared type ``tp``, or
    None for a float, whose one type test the loop makes inline."""
    if isinstance(tp, type) and issubclass(tp, Enum):
        return tp
    if get_origin(tp) is tuple:  # tuple[float, ...], the window's frame times
        return lambda xs: tuple([x if type(x) is float else _number(name, x) for x in xs])
    if tp is float:
        return None
    return lambda v: _integer(name, v)  # an int: the slow verdict


def reference_event_decode(d):
    """``event_from_dict`` as a loop over the event's fields, each converted
    by its type's decoder in field order.  A key the event does not have is
    refused first, but only when the key count is wrong; the event is built
    through ``_unchecked`` and then checked by ``__post_init__`` where the
    class has one.  The same event, or the same error."""
    if not isinstance(d, dict):
        raise SchemaError(f"event must be a JSON object, got {type(d).__name__}")
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in _EVENT_CLASSES:
        raise SchemaError(f"unknown event kind {kind!r}")
    cls = _EVENT_CLASSES[kind]
    hints = get_type_hints(cls)
    codecs = [(f.name, _reference_field_decoder(f.name, hints[f.name])) for f in fields(cls)]
    known = ("kind", *(name for name, _ in codecs))
    if len(d) != len(known):
        _check_keys(d, known, f" in event {kind!r}")
    args = []
    for name, dec in codecs:
        v = d[name]
        args.append(dec(v) if dec is not None else v if type(v) is float else _number(name, v))
    ev = cls._unchecked(*args)
    check = getattr(cls, "__post_init__", None)
    if check is not None:
        check(ev)
    return ev


def reference_event_dict(ev) -> dict:
    """An event's JSON object, by a plain walk over the fields of the class
    its ``kind`` names: ``kind`` first, each enum field by its ``value`` and
    each tuple as a list, and a field with a default left out where it
    equals it.  An object with no known ``kind`` is a TypeError."""
    kind = getattr(ev, "kind", None)
    if kind not in _EVENT_CLASSES:
        raise TypeError(f"unknown event {ev!r}")
    cls = _EVENT_CLASSES[kind]
    hints = get_type_hints(cls)
    d = {"kind": kind}
    for f in fields(cls):
        v = getattr(ev, f.name)
        if f.default is not MISSING and v == f.default:
            continue
        tp = hints[f.name]
        d[f.name] = (v.value if isinstance(tp, type) and issubclass(tp, Enum)
                     else list(v) if type(v) is tuple else v)
    return d


def reference_trace_dict(trace) -> dict:
    """The trace's JSON object, by a plain walk: ``json.dumps`` of it is
    what ``DecisionTrace.to_json`` must write, or fail with."""
    source = trace.alert_source
    return {
        "case_id": trace.case_id,
        "events": [reference_event_dict(ev) for ev in trace.events],
        "summary": {
            "end_to_end_latency": trace.end_to_end_latency,
            "alert_stream_time": trace.alert_stream_time,
            "alert_source": None if source is None else source.value,
            "aborted": trace.aborted,
            **({} if trace.abort_reason is None else {"abort_reason": trace.abort_reason}),
        },
    }
