"""Score a small prediction set against its annotations.

Shows the full metric suite: detection rate, warning precision, the
five-phase temporal distribution, the weighted safety score, and the
error-taxonomy breakdown.

Run with:  python3 demos/metrics_report.py
"""

from streamguard import CaseAnnotation, KeyFrames, PredictionRecord
from streamguard.metrics import build_report


def ann(case_id, difficulty="D1", entities=("kettle",)):
    return CaseAnnotation(
        case_id=case_id, location="living_room", danger_category="C4",
        severity="L2", difficulty=difficulty,
        key_frames=KeyFrames(intent_onset=3.6, pnr=4.0,
                             intervention_deadline=3.8, impact=4.5,
                             action_end=5.0),
        key_entities=tuple(entities), duration=6.0,
    )


annotations = {a.case_id: a for a in [
    ann("early"), ann("timely"), ann("late"), ann("blind"),
    ann("misread", difficulty="D3"),
]}

predictions = [
    PredictionRecord(case_id="early", verdict="hazard", timestamp=2.0),
    PredictionRecord(case_id="timely", verdict="hazard", timestamp=3.7),
    PredictionRecord(case_id="late", verdict="hazard", timestamp=4.2),
    PredictionRecord(case_id="blind", verdict="safe",
                     reasoning_text="the room looks tidy"),
    PredictionRecord(case_id="misread", verdict="safe",
                     reasoning_text="a kettle rests on the counter, harmless"),
]

report = build_report(predictions, annotations)
for key, value in report.row(model="demo").items():
    print(f"  {key:>20}: {value}")
