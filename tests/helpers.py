"""Shared fixtures: annotation builders, scripted schedules, the per-metric
functions the cross-metric identities check ``build_report`` against, and the
published-row inverter used to reconstruct aggregate metrics."""

from __future__ import annotations

from typing import Optional, Sequence

from streamguard.annotations import AnnotationSet, classify_phase
from streamguard.backends import ScheduleRule, ScriptedBackend
from streamguard.metrics import EmptyDataset, _join, _pred_map, build_report
from streamguard.model import (
    CaseAnnotation,
    Frame,
    FrameManifest,
    KeyFrames,
    Phase,
    PhaseScoreTable,
    PredictionRecord,
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


def ann_set(*anns) -> AnnotationSet:
    return AnnotationSet(cases={a.case_id: a for a in anns})


def grid_manifest(case_id="case-1", duration=5.0, step=0.1, times=None) -> FrameManifest:
    """Manifest with frames on a regular grid, or at explicit times."""
    if times is None:
        n = int(round(duration / step))
        times = [round(i * step, 6) for i in range(n + 1)]
    frames = tuple(Frame(t=t, image_path=f"{case_id}/{t:.2f}.jpg") for t in times)
    return FrameManifest(case_id=case_id, fps_native=1.0 / step, frames=frames)


def fast_script(rules, **kw) -> ScriptedBackend:
    """rules: (t0, t1, state) or (t0, t1, state, latency) tuples."""
    sched = []
    for rule in rules:
        t0, t1, state = rule[:3]
        payload = {"state": state, "reason": f"scripted {state}"}
        if len(rule) > 3:
            payload["latency"] = rule[3]
        sched.append(ScheduleRule(t0, t1, payload))
    return ScriptedBackend(fast_schedule=sched, **kw)


def slow_script(rules) -> ScriptedBackend:
    """rules: (t0, t1, verdict, latency) tuples keyed on trigger time."""
    return ScriptedBackend(slow_responses=[
        ScheduleRule(t0, t1, {"verdict": v, "latency": lat}) for t0, t1, v, lat in rules
    ])


# --- per-metric functions ----------------------------------------------------

def compute_hdr(preds: Sequence[PredictionRecord], n_total: int) -> float:
    """Fraction of cases predicted as hazardous, regardless of timing."""
    if n_total < 1:
        raise EmptyDataset("n_total must be >= 1")
    _pred_map(preds)
    return sum(1 for p in preds if p.is_hazard) / n_total


def compute_ewp(preds: Sequence[PredictionRecord], anns: AnnotationSet) -> Optional[float]:
    """Fraction of hazard alerts inside [intent onset, impact].

    Undefined (None) when there are no hazard predictions.
    """
    return build_report(preds, anns).ewp


def phase_counts(preds: Sequence[PredictionRecord], anns: AnnotationSet) -> dict:
    """Per-phase case counts over the full annotation set.

    Every annotated case lands in exactly one phase; cases without a
    hazard prediction (including format errors) are Missed.
    """
    counts = {phase: 0 for phase in Phase}
    for ann, pred in _join(preds, anns):
        counts[classify_phase(None if pred is None else pred.effective_timestamp, ann)] += 1
    return counts


def compute_pda(preds: Sequence[PredictionRecord], anns: AnnotationSet) -> dict:
    """Phase fractions over the annotation set; fractions sum to 1."""
    return build_report(preds, anns).phase_fractions


def compute_wss(preds: Sequence[PredictionRecord], anns: AnnotationSet,
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
