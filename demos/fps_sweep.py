"""Show why the post-trigger sampling rate matters.

Each synthetic case has a short Yellow burst followed by a 0.45 s Red
flash. At 5 Hz the coordinator catches the flash inside the optimal
window; at 1 Hz it samples right past it and the case is missed.

Run with:  python3 demos/fps_sweep.py
"""

from streamguard import (
    CaseAnnotation,
    CoordinatorConfig,
    Frame,
    FrameManifest,
    KeyFrames,
    ScheduleRule,
    ScriptedBackend,
)
from streamguard.ablation import sweep_fps
from streamguard.annotations import AnnotationSet

# Every case shares one backend pair: the scripts are keyed on stream time.
fast = ScriptedBackend(fast_schedule=[
    ScheduleRule(0.0, 0.9, {"state": "green"}),
    ScheduleRule(0.9, 1.3, {"state": "yellow"}),
    ScheduleRule(1.3, 1.75, {"state": "red"}),
    ScheduleRule(1.75, 99.0, {"state": "green"}),
])
slow = ScriptedBackend(slow_responses=[
    ScheduleRule(0.0, 99.0, {"verdict": 0, "latency": 0.3})])

manifests = []
anns = {}
for i in range(10):
    cid = f"burst-{i}"
    manifests.append(FrameManifest(
        case_id=cid, fps_native=10.0,
        frames=tuple(Frame(t=round(0.1 * j, 1)) for j in range(51))))
    anns[cid] = CaseAnnotation(
        case_id=cid, location="study", danger_category="C1", severity="L2",
        difficulty="D1",
        key_frames=KeyFrames(intent_onset=1.0, pnr=1.7,
                             intervention_deadline=1.5, impact=2.0,
                             action_end=2.5),
        key_entities=("cable",), duration=5.0,
    )

rows = sweep_fps(manifests, fast, slow, AnnotationSet(cases=anns), [1.0, 2.0, 5.0, 10.0],
                 CoordinatorConfig())
print(f"{'rate (Hz)':>10}  {'hdr':>6}  {'wss':>7}  {'mean latency':>12}")
for row in rows:
    latency = "-" if row["mean_latency"] is None else f"{row['mean_latency']:.3f}s"
    print(f"{row['fps']:>10.1f}  {row['hdr']:>6.2f}  {row['wss']:>7.2f}  {latency:>12}")
