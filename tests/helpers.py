"""Shared fixtures: annotation builders, scripted schedules, a virtual wall
clock, the per-metric functions the cross-metric identities check
``build_report`` against, the published-row inverter used to reconstruct
aggregate metrics, and reference copies of the prompt render and the
manifest and annotation case decodes."""

from __future__ import annotations

from concurrent.futures import Future
from typing import Optional, Sequence

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
    _check_stream,
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
    virtual time reaches dispatch time plus the latency ``fn`` reports; an
    exception from ``fn`` completes it at once.  ``result()`` on a future
    still in flight waits until it is due.  Tests put it in place of
    ``WallClock`` with ``monkeypatch.setitem(coordinator._CLOCKS, "real", ...)``.
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
        try:
            future.reply = fn(*args)
        except Exception as exc:
            future.set_exception(exc)
        else:
            future.due = self._now + future.reply[1]  # the reply's reported latency
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
# The straightforward forms of two hot paths, kept as the oracles their
# differential tests compare the program against.  The manifest decode is the
# two-pass form the one-pass decoder replaced: column comprehensions, then a
# per-frame decoder that names the bad entry.

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


def _reference_frame_decode(i: int, d) -> Frame:
    """Frame entry ``i``, decoded alone; a bad one is named ``frame <i>``."""
    what = f"frame {i}"
    if not isinstance(d, dict):
        raise SchemaError(f"{what} must be a JSON object, got {type(d).__name__}")
    try:
        t = v if type(v := d["t"]) is float else _number("t", v)
        image_path = d.get("image_path", "")
        if not isinstance(image_path, str):
            raise SchemaError(f"image_path must be a string, got {image_path!r}")
        return Frame(t=t, image_path=image_path)
    except KeyError as exc:
        raise SchemaError(f"missing field {exc} in {what}") from exc
    except DECODE_ERRORS as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def reference_manifest_decode(d) -> tuple:
    """``FrameManifest.from_dict`` as two passes: every frame's columns, and on
    a failure ``_reference_frame_decode`` entry by entry to name the bad one;
    then the stream checks.  A key outside the four a manifest holds is
    refused first.  ``(case_id, fps_native, times, paths, pre_overlaid)``,
    or the same error."""
    known = ("case_id", "fps_native", "frames", "pre_overlaid")
    try:
        unknown = [k for k in d if k not in known]
        if unknown:
            raise SchemaError(f"unknown key {unknown[0]!r} (known: {', '.join(known)})")
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
        except DECODE_ERRORS:
            for i, f in enumerate(entries):
                _reference_frame_decode(i, f)
            raise
        pre_overlaid = d.get("pre_overlaid", True)
    except DECODE_ERRORS as exc:
        raise decode_error("manifest", d, exc) from exc
    _check_stream(case_id, times, pre_overlaid)
    return case_id, fps_native, times, paths, pre_overlaid


def reference_case_decode(d) -> CaseAnnotation:
    """``CaseAnnotation.from_dict`` by the constructor path: the fields read
    as decoded, ``KeyFrames.from_dict``, then ``CaseAnnotation(...)``, whose
    ``__post_init__`` checks every value.  The same case, or the same error."""
    try:
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
