"""Walk one video case through the dual-brain coordinator.

A scripted FastBrain sees a calm scene turn ambiguous at 1.0 s and
clearly dangerous at 2.1 s; a scripted SlowBrain is still thinking when
the fast path escalates, so its query is cancelled by the override.

Run with:  python3 demos/dual_brain_run.py
"""

from streamguard import (
    CoordinatorConfig,
    Frame,
    FrameManifest,
    ScriptedBackend,
    run_case,
)

manifest = FrameManifest(
    case_id="demo-kettle",
    fps_native=10.0,
    frames=tuple(Frame(t=round(0.1 * i, 1), image_path=f"frames/{i:03d}.jpg")
                 for i in range(51)),
)

fast = ScriptedBackend({"fast_schedule": [
    {"t_start": 0.0, "t_end": 1.0, "state": "green", "reason": "robot idle"},
    {"t_start": 1.0, "t_end": 2.1, "state": "yellow", "reason": "reaching toward kettle"},
    {"t_start": 2.1, "t_end": 99.0, "state": "red", "reason": "contact imminent"},
]})
slow = ScriptedBackend({"slow_responses": [
    {"t_start": 0.5, "t_end": 1.5, "verdict": 1, "latency": 4.0},  # too slow to matter
]})

trace = run_case(manifest, fast, slow, CoordinatorConfig())

print(f"case: {trace.case_id}")
for event in trace.events:
    print(f"  {event}")
print(f"alert at:        {trace.alert_stream_time:.2f}s ({trace.alert_source.value})")
print(f"end-to-end:      {trace.end_to_end_latency:.3f}s")
