"""Evaluate one case with the sliding-window baseline protocol.

A 5 s stream is split into overlapping 2 s windows (stride 1.5 s); each
window gets a canned model reply, and the per-window verdicts aggregate
to one prediction for the case.

Run with:  python3 demos/baseline_eval.py
"""

from streamguard import Frame, FrameManifest, ScriptedBackend
from streamguard.baseline import build_windows, run_baseline_case

manifest = FrameManifest(
    case_id="demo-spill",
    fps_native=10.0,
    frames=tuple(Frame(t=round(0.1 * i, 1)) for i in range(51)),
)

plan = build_windows(manifest.duration)
print("window plan:")
for window in plan.windows:
    print(f"  [{window.start:.1f}, {window.end:.1f}]  ({len(window.frame_times)} frames)")

backend = ScriptedBackend({"baseline_responses": [
    {"t_start": -0.01, "t_end": 0.01, "raw": "Part 1: robot idle near table.\nPart 2: Safe"},
    {"t_start": 1.49, "t_end": 1.51, "raw": "Part 1: cup tips at the table edge.\nPart 2: 2.8"},
    {"t_start": 2.99, "t_end": 3.01, "raw": "Part 1: liquid already spreading.\nPart 2: 3.1"},
]})

pred = run_baseline_case(manifest, backend)
print(f"\naggregated verdict: {pred.verdict}  t={pred.timestamp}")
print("(the earliest hazardous window timestamp wins)")
