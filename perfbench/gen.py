"""Seeded input generators for the three benchmark workloads, and the
independent reference that says what the program must decide on them.

Every generator writes plain files (manifests, scripted-backend JSON,
annotations, predictions) into a directory and returns a ``Spec``: the
file paths plus a reference computed here from the generator's own
parameters, without calling any ``streamguard`` code.  The program only
ever sees the files.

Timing conventions that keep the reference simple and exact:
frames sit on a 0.1 s (10 fps) or 1/30 s grid; script boundaries sit at
``x.x5`` so no sample time falls on one; coordinator sample times are
multiples of the sampling intervals, so each lands exactly on a frame.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import random
from dataclasses import dataclass, field

EPS = 1e-9
US = 1_000_000
FAR = 1.0e6
FPS_SWEEP = (1.0, 2.0, 5.0, 10.0)
GAMMA_LOW, GAMMA_HIGH = 1.0, 5.0
WINDOW_LENGTH, WINDOW_STRIDE = 2.0, 1.5

LOCATIONS = ("bedroom", "bathroom", "living_room", "dining_room", "study", "balcony")
CATEGORIES = ("C1", "C2", "C3", "C4")
SEVERITIES = ("L1", "L2", "L3", "L4")
DIFFICULTIES = ("D1", "D2", "D3")
ENTITIES = ("kettle", "knife", "stove", "stairs", "scissors", "outlet", "pot", "ladder")
PHASE_SCORES = {"premature": 0.0, "optimal": 100.0, "suboptimal": 50.0,
                "irreversible": 25.0, "missed": 0.0}

# Corpus outcome mix: one scripted group of clips per entry.
CORPUS_KINDS = (["yellow_red"] * 6 + ["slow_danger"] * 5 + ["slow_safe_green"] * 5
                + ["all_green"] * 4 + ["malformed"] * 3 + ["timeout"])

SIZES = {
    # name: corpus (groups, cases), long_stream (streams, seconds), score_bulk cases
    "full": {"corpus": (len(CORPUS_KINDS), 438), "long_stream": (2, 600.0), "score_bulk": 20148},
    "tiny": {"corpus": (6, 24), "long_stream": (2, 40.0), "score_bulk": 300},
}


@dataclass
class Group:
    """Clips sharing one fast/slow/baseline script, as one CLI call runs them."""

    name: str
    manifest: str
    fast: str
    slow: str
    baseline: str
    annotations: str
    case_ids: list


@dataclass
class Spec:
    """Generated inputs plus the reference the outputs are checked against."""

    workload: str
    groups: list = field(default_factory=list)
    annotations: str = ""
    annotations_b: str = ""
    predictions: str = ""
    reference: dict = field(default_factory=dict)

    @property
    def case_ids(self) -> list:
        return [cid for g in self.groups for cid in g.case_ids]


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _snap(t: float) -> float:
    """A script boundary halfway between two 0.1 s grid points."""
    return round(math.floor(t * 10) / 10 + 0.05, 2)


def _frame_times(duration: float, fps: float) -> list:
    n = round(duration * fps)
    return [round(i / fps, 6) for i in range(n + 1)]


def _manifest(case_id: str, times: list, fps: float) -> dict:
    return {"case_id": case_id, "fps_native": fps, "pre_overlaid": True,
            "frames": [{"t": t, "image_path": f"{case_id}/{i:06d}.jpg"}
                       for i, t in enumerate(times)]}


def latest_index(times: list, t: float) -> int:
    """Index of the latest frame at or before ``t`` (the first frame if none)."""
    return max(bisect.bisect_right(times, t + EPS) - 1, 0)


def _in_any(intervals, t: float) -> bool:
    return any(a <= t < b for a, b in intervals)


def reference_decision(times: list, fast: dict, slow: dict, gamma_high: float) -> tuple:
    """(alert_t, source, aborted) for one clip under the sim clock.

    A from-scratch model of the dual-brain protocol: sample at
    ``GAMMA_LOW`` while Green and ``gamma_high`` otherwise; Red alerts at
    the sampled frame's time; Yellow dispatches one slow query at a time
    whose DANGER verdict alerts at trigger + latency; unparseable fast
    output counts as Yellow; a fast timeout aborts the clip.
    """
    duration = times[-1]
    faults = fast.get("faults", {})
    t_us, pending = 0, None
    while True:
        t = t_us / US
        past_end = t > duration + EPS
        if pending is not None and (pending[0] <= t + EPS or past_end):
            arrival, verdict = pending
            pending = None
            if verdict == 1:
                return arrival, "slow", False
            continue
        if past_end:
            return None, None, False
        ft = times[latest_index(times, t)]
        if _in_any(faults.get("timeout", []), ft):
            return None, None, True
        if _in_any(faults.get("malformed", []), ft):
            state = "yellow"
        else:
            state = next((r["state"] for r in fast.get("fast_schedule", [])
                          if r["t_start"] <= ft < r["t_end"]), "green")
        if state == "red":
            return ft, "fast", False
        if state == "yellow" and pending is None:
            verdict, latency = next(((r["verdict"], r["latency"])
                                     for r in slow.get("slow_responses", [])
                                     if r["t_start"] <= ft < r["t_end"]), (0, 1.0))
            pending = (t + latency, verdict)
        rate = GAMMA_LOW if state == "green" else gamma_high
        t_us += round(US * (1.0 / rate))


def window_starts(duration: float) -> list:
    """Start times of the sliding baseline windows over [0, duration]."""
    starts, k = [], 0
    while True:
        start = round(k * WINDOW_STRIDE, 9)
        starts.append(start)
        if start + WINDOW_LENGTH >= duration - EPS:
            return starts
        k += 1


def reference_baseline(duration: float, hazard: dict, garbled: set, all_garbled: bool) -> tuple:
    """(verdict, timestamp) the sliding-window baseline must report.

    ``hazard`` maps a window index to the hazard time its reply names,
    ``garbled`` holds indices whose reply has no parseable verdict.
    """
    if all_garbled:
        return "safe", None
    n = len(window_starts(duration))
    times = [ts for k, ts in hazard.items() if k < n and k not in garbled]
    return ("hazard", min(times)) if times else ("safe", None)


def _baseline_script(hazard: dict, garbled: set, all_garbled: bool, entity: str) -> dict:
    if all_garbled:
        return {"baseline_responses": [
            {"t_start": -1.0, "t_end": FAR, "raw": "Part 1: hard to tell.\nPart 2: maybe"}]}
    rules = []
    for k, ts in hazard.items():
        s = k * WINDOW_STRIDE
        rules.append({"t_start": round(s - 0.1, 2), "t_end": round(s + 0.1, 2),
                      "raw": f"Part 1: the {entity} is about to cause harm.\nPart 2: {ts:.1f}"})
    for k in garbled:
        s = k * WINDOW_STRIDE
        rules.append({"t_start": round(s - 0.1, 2), "t_end": round(s + 0.1, 2),
                      "raw": f"Part 1: something near the {entity}.\nPart 2: [unsure]"})
    return {"baseline_responses": sorted(rules, key=lambda r: r["t_start"])}


def _key_frames(rng: random.Random, hazard_t: float) -> dict:
    intent = round(min(max(hazard_t + rng.uniform(-1.0, 0.5), 0.5), 5.0), 1)
    pnr = round(intent + rng.uniform(0.3, 1.0), 1)
    impact = round(pnr + rng.uniform(0.1, 0.6), 1)
    return {"intent_onset": intent, "pnr": pnr, "intervention_deadline": round(pnr - 0.2, 1),
            "impact": impact, "action_end": round(impact + rng.uniform(0.1, 0.8), 1)}


def _annotation(rng: random.Random, case_id: str, duration: float, key_frames: dict) -> dict:
    return {"case_id": case_id, "location": rng.choice(LOCATIONS),
            "danger_category": rng.choice(CATEGORIES), "severity": rng.choice(SEVERITIES),
            "difficulty": rng.choice(DIFFICULTIES),
            "key_frames": key_frames,
            "key_entities": rng.sample(ENTITIES, rng.randint(1, 2)),
            "duration": duration, "is_valid": True}


def _group_scripts(rng: random.Random, kind: str, h: float) -> tuple:
    """Fast and slow scripts for one corpus group whose hazard is near ``h``."""
    y0 = _snap(max(h - rng.uniform(0.5, 2.0), 0.6))
    fast: dict = {"fast_schedule": [], "faults": {"malformed": [], "timeout": []}}
    slow_verdict, slow_latency = 0, round(rng.uniform(0.3, 1.5), 1)
    if kind == "yellow_red":
        r0 = max(_snap(h), round(y0 + 0.5, 2))
        fast["fast_schedule"] = [
            {"t_start": y0, "t_end": r0, "state": "yellow", "reason": "reaching"},
            {"t_start": r0, "t_end": r0 + 2.0, "state": "red", "reason": "contact"}]
    elif kind in ("slow_danger", "slow_safe_green"):
        fast["fast_schedule"] = [{"t_start": y0, "t_end": _snap(y0 + rng.uniform(1.0, 4.0)),
                                  "state": "yellow", "reason": "unclear"}]
        slow_verdict = 1 if kind == "slow_danger" else 0
    elif kind == "malformed":
        fast["faults"]["malformed"] = [[y0, _snap(y0 + rng.uniform(1.0, 3.0))]]
    elif kind == "timeout":
        fast["faults"]["timeout"] = [[y0, y0 + 1.5]]
    slow = {"slow_responses": [{"t_start": 0.0, "t_end": FAR, "verdict": slow_verdict,
                                "latency": slow_latency}]}
    return fast, slow


def generate_corpus(root: str, seed: int, size: str = "full") -> Spec:
    """Short clips at 10 fps in groups, one scripted outcome per group."""
    n_groups, n_cases = SIZES[size]["corpus"]
    kinds = CORPUS_KINDS if n_groups == len(CORPUS_KINDS) else sorted(set(CORPUS_KINDS))
    rng = random.Random(f"corpus-{seed}")
    # Clip lengths spread evenly over 8-30 s; the seed only deals them out,
    # so the total work of a pass does not depend on it.
    durations = [round(8.0 + 22.0 * (i + 0.5) / n_cases, 1) for i in range(n_cases)]
    rng.shuffle(durations)
    spec = Spec("corpus")
    ref_run, ref_base, ref_sweep = {}, {}, {}
    all_anns = []
    for g, kind in enumerate(kinds):
        name = f"g{g:02d}"
        h = round(rng.uniform(2.0, 4.5), 1)
        fast, slow = _group_scripts(rng, kind, h)
        hazard, garbled = {}, set()
        if kind in ("yellow_red", "slow_danger"):
            ts = round(h + rng.uniform(-0.5, 0.5), 1)
            hazard[int(ts // WINDOW_STRIDE)] = ts
        elif kind == "malformed":
            garbled = {1, 2, 3}
        entity = rng.choice(ENTITIES)
        base = _baseline_script(hazard, garbled, kind == "timeout", entity)

        count = n_cases // len(kinds) + (1 if g < n_cases % len(kinds) else 0)
        manifests, anns, ids = [], [], []
        for j in range(count):
            cid = f"c{g:02d}-{j:02d}"
            duration = durations.pop()
            times = _frame_times(duration, 10.0)
            manifests.append(_manifest(cid, times, 10.0))
            anns.append(_annotation(rng, cid, duration, _key_frames(rng, h)))
            ids.append(cid)
            alert_t, source, aborted = reference_decision(times, fast, slow, GAMMA_HIGH)
            ref_run[cid] = [alert_t, source, aborted,
                            "safe" if alert_t is None else "hazard", alert_t]
            ref_base[cid] = list(reference_baseline(duration, hazard, garbled, kind == "timeout"))
            for fps in FPS_SWEEP:
                hit = reference_decision(times, fast, slow, fps)[0] is not None
                ref_sweep.setdefault(name, {}).setdefault(str(fps), 0)
                ref_sweep[name][str(fps)] += hit
        paths = {k: os.path.join(root, f"{name}-{k}.json")
                 for k in ("manifest", "fast", "slow", "baseline", "annotations")}
        for key, obj in (("manifest", manifests), ("fast", fast), ("slow", slow),
                         ("baseline", base), ("annotations", anns)):
            _write_json(paths[key], obj)
        spec.groups.append(Group(name=name, case_ids=ids, **paths))
        all_anns.extend(anns)

    spec.annotations = os.path.join(root, "annotations.json")
    _write_json(spec.annotations, all_anns)
    spec.reference = {"run": ref_run, "baseline": ref_base, "sweep": ref_sweep,
                      "baseline_format_errors": sum(
                          1 for g, k in zip(spec.groups, kinds) if k == "timeout"
                          for _ in g.case_ids)}
    _write_json(os.path.join(root, "reference.json"), spec.reference)
    return spec


def generate_long_stream(root: str, seed: int, size: str = "full") -> Spec:
    """Long 30 fps streams: one hazard after 580 s (scaled when tiny), one never."""
    n_streams, duration = SIZES[size]["long_stream"]
    rng = random.Random(f"long_stream-{seed}")
    spec = Spec("long_stream")
    ref_run, ref_base = {}, {}
    times = _frame_times(duration, 30.0)
    for s in range(n_streams):
        name = f"s{s}"
        cid = f"stream-{s}"
        fast = {"fast_schedule": [], "faults": {"malformed": [], "timeout": []}}
        hazard = {}
        if s % 2 == 0:
            h = round(duration - rng.uniform(5.0, 18.0), 1)
            y0 = _snap(h - rng.uniform(2.0, 5.0))
            fast["fast_schedule"] = [
                {"t_start": y0, "t_end": _snap(h), "state": "yellow", "reason": "reaching"},
                {"t_start": _snap(h), "t_end": _snap(h) + 3.0, "state": "red", "reason": "contact"}]
            hazard[int(h // WINDOW_STRIDE)] = h
        slow = {"slow_responses": [{"t_start": 0.0, "t_end": FAR, "verdict": 0,
                                    "latency": round(rng.uniform(0.5, 1.5), 1)}]}
        base = _baseline_script(hazard, set(), False, rng.choice(ENTITIES))
        alert_t, source, aborted = reference_decision(times, fast, slow, GAMMA_HIGH)
        ref_run[cid] = [alert_t, source, aborted, "safe" if alert_t is None else "hazard", alert_t]
        ref_base[cid] = list(reference_baseline(duration, hazard, set(), False))
        paths = {k: os.path.join(root, f"{name}-{k}.json")
                 for k in ("manifest", "fast", "slow", "baseline")}
        for key, obj in (("manifest", [_manifest(cid, times, 30.0)]), ("fast", fast),
                         ("slow", slow), ("baseline", base)):
            _write_json(paths[key], obj)
        spec.groups.append(Group(name=name, annotations="", case_ids=[cid], **paths))
    spec.reference = {"run": ref_run, "baseline": ref_base}
    _write_json(os.path.join(root, "reference.json"), spec.reference)
    return spec


def _jitter_key_frames(rng: random.Random, kf: dict) -> dict:
    intent = round(kf["intent_onset"] + rng.choice((-0.1, 0.0, 0.0, 0.1)), 1)
    pnr = round(max(kf["pnr"] + rng.choice((-0.1, 0.0, 0.1, 0.2)), intent + 0.3), 1)
    impact = round(max(kf["impact"] + rng.choice((0.0, 0.1)), pnr + 0.1), 1)
    return {"intent_onset": intent, "pnr": pnr, "intervention_deadline": round(pnr - 0.2, 1),
            "impact": impact, "action_end": round(max(kf["action_end"], impact + 0.1), 1)}


def _prediction_for(rng: random.Random, i: int, cid: str, kf: dict, entities: list) -> dict:
    """Cycle through hazard-in-each-phase, two kinds of Safe, and format errors."""
    kind = i % 10
    pred = {"case_id": cid, "verdict": "safe", "timestamp": None,
            "severity_claim": rng.choice(("none",) + SEVERITIES) if i % 4 else None,
            "reasoning_text": "", "raw_output": "", "parse_status": "ok", "parse_detail": ""}
    hazard_times = {
        0: kf["intent_onset"] - 0.5,                               # premature
        1: kf["intent_onset"], 2: kf["intervention_deadline"],     # optimal
        3: kf["pnr"], 4: kf["impact"], 5: kf["action_end"] + 1.0,  # later phases
    }
    if kind in hazard_times:
        pred["verdict"] = "hazard"
        pred["timestamp"] = round(max(hazard_times[kind], 0.0), 1)
    elif kind == 6:
        pred["reasoning_text"] = f"Part 1: a person walks past the {entities[0]}.\nPart 2: Safe"
    elif kind == 7:
        pred["parse_status"] = "format_error"
        pred["parse_detail"] = "[0.0,2.0]:missing_part2"
    else:
        pred["reasoning_text"] = "Part 1: nothing notable.\nPart 2: Safe"
    return pred


def generate_score_bulk(root: str, seed: int, size: str = "full") -> Spec:
    """A large predictions file plus two annotation passes over the same cases."""
    n = SIZES[size]["score_bulk"]
    rng = random.Random(f"score_bulk-{seed}")
    anns_a, anns_b, preds = [], [], []
    for i in range(n):
        cid = f"b{i:05d}"
        duration = round(rng.uniform(8.0, 30.0), 1)
        a = _annotation(rng, cid, duration, _key_frames(rng, rng.uniform(1.0, 4.5)))
        b = dict(a, key_frames=_jitter_key_frames(rng, a["key_frames"]))
        for fld, choices in (("danger_category", CATEGORIES), ("severity", SEVERITIES),
                             ("difficulty", DIFFICULTIES)):
            if rng.random() < 0.1:
                b[fld] = rng.choice(choices)
        if b["difficulty"] in ("D1", "D2") and not b["key_entities"]:
            b["key_entities"] = [ENTITIES[0]]
        if i % 37 == 0:
            (a if i % 2 else b)["is_valid"] = False
        anns_a.append(a)
        anns_b.append(b)
        preds.append(_prediction_for(rng, i, cid, a["key_frames"], a["key_entities"]))
    spec = Spec("score_bulk")
    spec.annotations = os.path.join(root, "annotations_a.json")
    spec.annotations_b = os.path.join(root, "annotations_b.json")
    spec.predictions = os.path.join(root, "predictions.jsonl")
    _write_json(spec.annotations, anns_a)
    _write_json(spec.annotations_b, anns_b)
    with open(spec.predictions, "w", encoding="utf-8") as fh:
        for p in preds:
            fh.write(json.dumps(p) + "\n")
    valid = [(a, b) for a, b in zip(anns_a, anns_b) if a["is_valid"] and b["is_valid"]]
    spec.reference = {
        "n": n,
        "hazards": sum(1 for p in preds if p["verdict"] == "hazard"),
        "format_errors": sum(1 for p in preds if p["parse_status"] == "format_error"),
        "severity_claims": sum(1 for p in preds if p["severity_claim"] is not None),
        "n_both_valid": len(valid),
        "mae": {fld: sum(abs(a["key_frames"][fld] - b["key_frames"][fld]) for a, b in valid)
                / len(valid) for fld in a["key_frames"]},
    }
    _write_json(os.path.join(root, "reference.json"), spec.reference)
    return spec


GENERATORS = {"corpus": generate_corpus, "long_stream": generate_long_stream,
              "score_bulk": generate_score_bulk}
