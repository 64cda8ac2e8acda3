"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Each criterion prints `[PASS]`/`[FAIL]` with its runtime; run with
``pytest tests/test_acceptance.py -s`` to see the lines as they happen.
"""

import csv
import functools
import json
import random
import time

import pytest

from streamguard.agreement import agreement_table, cohens_kappa, icc_a1, \
    keyframe_mae, lins_ccc
from streamguard.annotations import classify_phase
from streamguard.baseline import build_windows
from streamguard.cli import EXIT_OK, main as cli_main
from streamguard.coordinator import CoordinatorConfig, run_case
from streamguard.metrics import build_report
from streamguard.model import (
    Alert,
    AlertSource,
    FastState,
    FrameSampled,
    Override,
    Phase,
    PhaseScoreTable,
    PredictionRecord,
    RateChange,
    SafetyState,
    SlowDispatched,
)
from streamguard.parsing import FormatError, parse_baseline_verdict, \
    parse_fast_output, parse_severity_verdict, parse_slow_output

from helpers import ann_set, compute_ewp, compute_hdr, compute_pda, compute_wss, \
    fast_script, grid_manifest, invert_row, make_ann, phase_counts, reference_event_dict, \
    slow_script
import test_agreement as agr
import test_coordinator as coord
import test_parsing as parsing_corpus

_EPS = 1e-9
_US = 1_000_000


def criterion(number, title, budget_s):
    """Wraps a criterion body with timing, the budget check, and the
    pass/fail summary line."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"[FAIL] criterion {number}: {title} ({elapsed:.2f}s)")
                raise
            elapsed = time.perf_counter() - start
            print(f"[PASS] criterion {number}: {title} ({elapsed:.2f}s)")
            assert elapsed < budget_s, (
                f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s")
        return wrapper
    return deco


# --- 1. published aggregate rows ---------------------------------------------

ROWS = [
    # hdr, ewp, premature, optimal, suboptimal, irreversible, missed, wss (%)
    (75.11, 43.77, 37.90, 13.93, 9.82, 9.13, 29.22, 21.12),
    (93.61, 25.12, 66.89, 14.84, 5.48, 3.20, 9.59, 18.38),
    (86.53, 49.34, 24.89, 15.07, 11.87, 15.75, 32.19, 24.94),
]


@criterion(1, "published aggregate rows reproduced from inverted predictions", 1.0)
def test_criterion_1_aggregate_rows():
    for hdr, ewp, pre, opt, sub, irr, missed, wss in ROWS:
        preds, anns = invert_row(hdr, pre, opt, sub, irr)
        assert len(anns) == 438
        report = build_report(preds, anns, scores=PhaseScoreTable.default())
        assert abs(report.hdr - hdr / 100) <= 0.005
        assert abs(report.ewp - ewp / 100) <= 0.005
        got = report.phase_fractions
        for phase, pct in [(Phase.PREMATURE, pre), (Phase.OPTIMAL, opt),
                           (Phase.SUBOPTIMAL, sub), (Phase.IRREVERSIBLE, irr),
                           (Phase.MISSED, missed)]:
            assert abs(got[phase] - pct / 100) <= 0.005, phase
        assert abs(report.wss - wss) <= 0.05


# --- 2. cross-metric identities ----------------------------------------------

@criterion(2, "cross-metric identities on 1,000 randomized datasets", 10.0)
def test_criterion_2_metric_identities():
    rng = random.Random(20250218)
    table = PhaseScoreTable.default()
    for _ in range(1000):
        n = rng.randrange(1, 25)
        anns = []
        preds = []
        for i in range(n):
            cid = f"c{i}"
            anns.append(make_ann(case_id=cid))
            kind = rng.random()
            if kind < 0.3:
                preds.append(PredictionRecord(case_id=cid, verdict="safe"))
            elif kind < 0.85:
                preds.append(PredictionRecord(case_id=cid, verdict="hazard",
                                              timestamp=round(rng.uniform(0, 6), 3)))
        aset = ann_set(*anns)
        counts = phase_counts(preds, aset)
        pda = compute_pda(preds, aset)
        n_hazard = sum(1 for p in preds if p.is_hazard)
        ewp = compute_ewp(preds, aset)
        wss = compute_wss(preds, aset, table)

        assert abs(sum(pda.values()) - 1.0) < 1e-12
        in_window = (counts[Phase.OPTIMAL] + counts[Phase.SUBOPTIMAL]
                     + counts[Phase.IRREVERSIBLE])
        if n_hazard:
            assert abs(in_window - ewp * n_hazard) < 1e-9
        else:
            assert ewp is None and in_window == 0
        after_impact = sum(
            1 for p in preds
            if p.is_hazard and p.timestamp > aset[p.case_id].key_frames.impact)
        assert counts[Phase.MISSED] == (n - n_hazard) + after_impact
        assert abs(wss - sum(table[ph] * pda[ph] for ph in Phase)) < 1e-9
        assert abs(compute_hdr(preds, n) - n_hazard / n) < 1e-12


# --- 3. coordinator protocol properties --------------------------------------

@criterion(3, "protocol properties on 500 randomized scripted traces", 30.0)
def test_criterion_3_protocol_properties():
    rng = random.Random(314159)
    cfg = CoordinatorConfig()
    for _ in range(500):
        manifest, fast, slow = coord._random_case(rng)
        trace = run_case(manifest, fast, slow, cfg)
        assert not trace.aborted
        coord._check_protocol(trace, cfg, manifest)
        rerun = run_case(manifest, fast, slow, cfg)
        assert json.dumps(trace.to_dict(), sort_keys=True) == \
            json.dumps(rerun.to_dict(), sort_keys=True)


# --- 4. golden decision timelines --------------------------------------------

def _dump(events):
    return [reference_event_dict(ev) for ev in events]


@criterion(4, "golden decision timelines match event for event", 5.0)
def test_criterion_4_golden_timelines():
    # (a) ambiguity at 1.0 s escalates; the fast alert at 2.1 s beats pnr 4.4 s
    manifest = grid_manifest(
        times=[0.0, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.1, 2.4, 3.0, 5.0])
    fast = fast_script([(0.0, 1.0, "green"), (1.0, 2.1, "yellow"),
                        (2.1, 99.0, "red")])
    slow = slow_script([(0.9, 1.1, 0, 5.0)])
    trace = run_case(manifest, fast, slow, CoordinatorConfig())
    expected = [
        FrameSampled(t=0.0, rate=1.0),
        FastState(t=0.0, state=SafetyState.GREEN, fast_latency=0.05),
        FrameSampled(t=1.0, rate=1.0),
        FastState(t=1.0, state=SafetyState.YELLOW, fast_latency=0.05),
        SlowDispatched(trigger_t=1.0, window_frame_times=(0.0, 1.0)),
        RateChange(t=1.0, new_rate=5.0),
    ]
    for t in (1.2, 1.4, 1.6, 1.8, 2.0):
        expected += [FrameSampled(t=t, rate=5.0),
                     FastState(t=t, state=SafetyState.YELLOW, fast_latency=0.05)]
    expected += [
        FrameSampled(t=2.2, rate=5.0),
        FastState(t=2.2, state=SafetyState.RED, fast_latency=0.05),
        Override(t=2.2),
        Alert(t_alert=2.1, source=AlertSource.FAST),
    ]
    assert _dump(trace.events) == _dump(expected)
    assert trace.alert_stream_time == 2.1
    assert trace.alert_stream_time < 4.4

    # (b) sustained ambiguity; the alert at 4.12 s lands past the pnr at 4.0 s
    times = [round(0.1 * i, 6) for i in range(42)] + [4.12, 4.45, 5.0]
    manifest = grid_manifest(times=times)
    fast = fast_script([(0.0, 4.12, "yellow"), (4.12, 99.0, "red")])
    slow = slow_script([(0.0, 99.0, 0, 100.0)])
    trace = run_case(manifest, fast, slow, CoordinatorConfig())
    expected = [
        FrameSampled(t=0.0, rate=1.0),
        FastState(t=0.0, state=SafetyState.YELLOW, fast_latency=0.05),
        SlowDispatched(trigger_t=0.0, window_frame_times=(0.0,)),
        RateChange(t=0.0, new_rate=5.0),
    ]
    for i in range(1, 21):
        t = round(0.2 * i, 6)
        expected += [FrameSampled(t=t, rate=5.0),
                     FastState(t=t, state=SafetyState.YELLOW, fast_latency=0.05)]
    expected += [
        FrameSampled(t=4.2, rate=5.0),
        FastState(t=4.2, state=SafetyState.RED, fast_latency=0.05),
        Override(t=4.2),
        Alert(t_alert=4.12, source=AlertSource.FAST),
    ]
    assert _dump(trace.events) == _dump(expected)
    ann = make_ann()  # intent 3.6, pnr 4.0, impact 4.5
    assert classify_phase(trace.alert_stream_time, ann) == Phase.IRREVERSIBLE

    # (c) a 7.11 s slow round-trip is beaten by the fast alert at 2.33 s
    manifest = grid_manifest(
        times=[0.0, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.33, 2.5, 5.0])
    fast = fast_script([(0.0, 1.0, "green"), (1.0, 2.33, "yellow"),
                        (2.33, 99.0, "red")])
    slow = slow_script([(0.9, 1.1, 0, 7.11)])
    trace = run_case(manifest, fast, slow, CoordinatorConfig())
    expected = [
        FrameSampled(t=0.0, rate=1.0),
        FastState(t=0.0, state=SafetyState.GREEN, fast_latency=0.05),
        FrameSampled(t=1.0, rate=1.0),
        FastState(t=1.0, state=SafetyState.YELLOW, fast_latency=0.05),
        SlowDispatched(trigger_t=1.0, window_frame_times=(0.0, 1.0)),
        RateChange(t=1.0, new_rate=5.0),
    ]
    for t in (1.2, 1.4, 1.6, 1.8, 2.0, 2.2):
        expected += [FrameSampled(t=t, rate=5.0),
                     FastState(t=t, state=SafetyState.YELLOW, fast_latency=0.05)]
    expected += [
        FrameSampled(t=2.4, rate=5.0),
        FastState(t=2.4, state=SafetyState.RED, fast_latency=0.05),
        Override(t=2.4),
        Alert(t_alert=2.33, source=AlertSource.FAST),
    ]
    assert _dump(trace.events) == _dump(expected)
    assert trace.alert_stream_time is not None


# --- 5. agreement statistics -------------------------------------------------

@criterion(5, "agreement statistics match the direct-formula oracle", 10.0)
def test_criterion_5_agreement(tmp_path):
    rng = random.Random(271828)
    for _ in range(100):
        n = rng.randrange(3, 50)
        x = [round(rng.uniform(0, 20), 3) for _ in range(n)]
        y = [round(v + rng.gauss(0, 0.5), 3) for v in x]
        assert abs(lins_ccc(x, y) - agr.oracle_ccc(x, y)) < 1e-9
        assert abs(icc_a1(x, y) - agr.oracle_icc_a1(x, y)) < 1e-9
        assert abs(keyframe_mae(x, y) - agr.oracle_mae(x, y)) < 1e-9
        labels_a = [rng.choice("CDEF") for _ in range(n)]
        labels_b = [a if rng.random() < 0.6 else rng.choice("CDEF")
                    for a in labels_a]
        assert abs(cohens_kappa(labels_a, labels_b)
                   - agr.oracle_kappa(labels_a, labels_b)) < 1e-9

    # identical inputs are perfect agreement
    x = [1.0, 2.0, 3.5, 6.0]
    assert cohens_kappa(list("abca"), list("abca")) == 1.0
    assert lins_ccc(x, x) == 1.0
    assert icc_a1(x, x) == pytest.approx(1.0)
    assert keyframe_mae(x, x) == 0.0

    # summary table: five keyframe rows, three statistics, byte-stable CSV
    ann_a = [make_ann(case_id=f"k{i}", intent=1.0 + 0.5 * i, pnr=1.8 + 0.5 * i,
                      deadline=1.6 + 0.5 * i, impact=2.2 + 0.5 * i,
                      end=2.6 + 0.5 * i, duration=8.0).to_dict() for i in range(6)]
    ann_b = [make_ann(case_id=f"k{i}", intent=1.02 + 0.5 * i, pnr=1.83 + 0.5 * i,
                      deadline=1.63 + 0.5 * i, impact=2.2 + 0.5 * i,
                      end=2.6 + 0.5 * i, duration=8.0).to_dict() for i in range(6)]
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    path_a.write_text(json.dumps(ann_a), encoding="utf-8")
    path_b.write_text(json.dumps(ann_b), encoding="utf-8")
    outputs = []
    for name in ("t1.csv", "t2.csv"):
        out = tmp_path / name
        assert cli_main(["agreement", "--a", str(path_a), "--b", str(path_b),
                         "--out", str(out)]) == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    with (tmp_path / "t1.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["field"] for r in rows] == [
        "intent_onset", "pnr", "intervention_deadline", "impact", "action_end"]
    assert all(set(r) == {"field", "ccc", "icc_a1", "mae_s"} for r in rows)


# --- 6. parser corpus and fuzz -----------------------------------------------

@criterion(6, "parser corpora and 10,000-input fuzz with total behaviour", 20.0)
def test_criterion_6_parsers():
    assert len(parsing_corpus.FAST_OK) + len(parsing_corpus.FAST_BAD) >= 20
    assert len(parsing_corpus.SLOW_OK) + len(parsing_corpus.SLOW_BAD) >= 20
    assert len(parsing_corpus.BASE_OK) + len(parsing_corpus.BASE_BAD) >= 20
    for raw, state in parsing_corpus.FAST_OK:
        assert parse_fast_output(raw)[0] == state
    for raw in parsing_corpus.FAST_BAD:
        with pytest.raises(FormatError):
            parse_fast_output(raw)
    for raw, verdict in parsing_corpus.SLOW_OK:
        assert parse_slow_output(raw) == verdict
    for raw in parsing_corpus.SLOW_BAD:
        with pytest.raises(FormatError):
            parse_slow_output(raw)
    for raw, window, expectation in parsing_corpus.BASE_OK:
        assert parse_baseline_verdict(raw, *window) == expectation
    for raw, window in parsing_corpus.BASE_BAD:
        with pytest.raises(FormatError):
            parse_baseline_verdict(raw, *window)

    rng = random.Random(16180)
    for _ in range(10_000):
        raw = parsing_corpus._random_text(rng)
        for parse in (parse_fast_output, parse_slow_output,
                      lambda r: parse_baseline_verdict(r, 0.0, 2.0),
                      parse_severity_verdict):
            try:
                parse(raw)
            except FormatError:
                pass  # the only permitted failure mode


# --- 7. window planner -------------------------------------------------------

@criterion(7, "window plans: spacing, overlap and coverage on 200 durations", 5.0)
def test_criterion_7_window_planner():
    plan = build_windows(5.0)
    assert [(w.start, w.end) for w in plan.windows] == \
        [(0.0, 2.0), (1.5, 3.5), (3.0, 5.0)]

    rng = random.Random(577215)
    for _ in range(200):
        duration = round(rng.uniform(0.3, 40.0), 2)
        windows = build_windows(duration).windows
        assert windows[0].start == 0.0
        for w in windows[:-1]:
            assert abs((w.end - w.start) - 2.0) < _EPS
        for a, b in zip(windows, windows[1:]):
            assert abs((b.start - a.start) - 1.5) < 1e-6
            assert abs((a.end - b.start) - 0.5) < 1e-6
        assert windows[-1].end <= duration + _EPS
        t = 0.0
        while t < duration:
            assert any(w.start - _EPS <= t <= w.end + _EPS for w in windows), t
            t += 0.1


# --- 8. sampling-rate sensitivity --------------------------------------------

@criterion(8, "yellow-burst suite: wss at 5 Hz strictly beats 1 Hz", 10.0)
def test_criterion_8_fps_sweep():
    from streamguard.ablation import sweep_fps

    fast = fast_script([(0.0, 0.9, "green"), (0.9, 1.3, "yellow"),
                        (1.3, 1.75, "red"), (1.75, 99.0, "green")])
    slow = slow_script([(0.0, 99.0, 0, 0.3)])
    manifests = []
    anns = []
    for i in range(8):
        cid = f"burst-{i}"
        manifests.append(grid_manifest(case_id=cid, duration=5.0))
        anns.append(make_ann(case_id=cid, intent=1.0, deadline=1.5, pnr=1.7,
                             impact=2.0, end=2.5, duration=5.0))
    rows = sweep_fps(manifests, fast, slow, ann_set(*anns), [1.0, 5.0])
    by_fps = {row["fps"]: row["wss"] for row in rows}
    assert by_fps[5.0] > by_fps[1.0], by_fps
