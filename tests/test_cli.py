"""End-to-end command-line coverage: every subcommand, exit codes, and
output-file stability."""

import csv
import json

import pytest

from streamguard.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, main
from streamguard.model import DecisionTrace

from helpers import ann_set, grid_manifest, make_ann


@pytest.fixture()
def workdir(tmp_path):
    """A tmp directory pre-populated with annotations, manifests, scripts."""
    anns = [make_ann(case_id="c0", intent=1.0, deadline=1.5, pnr=1.7,
                     impact=2.0, end=2.5, duration=5.0).to_dict(),
            make_ann(case_id="c1", intent=1.0, deadline=1.5, pnr=1.7,
                     impact=2.0, end=2.5, duration=5.0).to_dict()]
    (tmp_path / "anns.json").write_text(json.dumps(anns), encoding="utf-8")

    manifests = [grid_manifest(case_id="c0", duration=5.0).to_dict(),
                 grid_manifest(case_id="c1", duration=5.0).to_dict()]
    (tmp_path / "manifests.json").write_text(json.dumps(manifests), encoding="utf-8")

    fast_script = {"fast_schedule": [
        {"t_start": 0.9, "t_end": 1.35, "state": "yellow"},
        {"t_start": 1.35, "t_end": 1.75, "state": "red"},
    ]}
    (tmp_path / "fast.json").write_text(json.dumps(fast_script), encoding="utf-8")
    slow_script = {"slow_responses": [
        {"t_start": 0.0, "t_end": 99.0, "verdict": 0, "latency": 0.3},
    ]}
    (tmp_path / "slow.json").write_text(json.dumps(slow_script), encoding="utf-8")

    baseline_script = {"baseline_responses": [
        {"t_start": 1.4, "t_end": 1.6, "raw": "Part 1: risky\nPart 2: 1.6"},
    ]}
    (tmp_path / "baseline.json").write_text(json.dumps(baseline_script),
                                            encoding="utf-8")
    return tmp_path


def test_validate_ok(workdir, capsys):
    assert main(["validate", "--annotations", str(workdir / "anns.json")]) == EXIT_OK
    assert "2 cases OK" in capsys.readouterr().out


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", "--annotations", str(tmp_path / "nope.json")]) == EXIT_IO


def test_validate_domain_error(tmp_path, capsys):
    bad = make_ann(case_id="x").to_dict()
    bad["key_frames"]["impact"] = 0.1  # violates the lifecycle order
    (tmp_path / "bad.json").write_text(json.dumps([bad]), encoding="utf-8")
    assert main(["validate", "--annotations", str(tmp_path / "bad.json")]) == EXIT_DOMAIN
    assert "invalid" in capsys.readouterr().err


def test_run_writes_traces(workdir, capsys):
    out = workdir / "traces.jsonl"
    code = main(["run", "--manifest", str(workdir / "manifests.json"),
                 "--fast", f"scripted:{workdir / 'fast.json'}",
                 "--slow", f"scripted:{workdir / 'slow.json'}",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    traces = [DecisionTrace.from_dict(json.loads(line)) for line in lines]
    assert [t.case_id for t in traces] == ["c0", "c1"]
    assert all(t.alert_stream_time == pytest.approx(1.4) for t in traces)
    assert "2 cases, 2 alerts" in capsys.readouterr().out


def test_run_parallel_preserves_order(workdir):
    serial = workdir / "serial.jsonl"
    parallel = workdir / "parallel.jsonl"
    base = ["run", "--manifest", str(workdir / "manifests.json"),
            "--fast", f"scripted:{workdir / 'fast.json'}",
            "--slow", f"scripted:{workdir / 'slow.json'}"]
    assert main(base + ["--out", str(serial)]) == EXIT_OK
    assert main(base + ["--jobs", "4", "--out", str(parallel)]) == EXIT_OK
    assert serial.read_text() == parallel.read_text()


def test_run_unknown_backend_spec(workdir):
    code = main(["run", "--manifest", str(workdir / "manifests.json"),
                 "--fast", "magic:nope", "--slow", "magic:nope",
                 "--out", str(workdir / "x.jsonl")])
    assert code == EXIT_IO


def test_eval_baseline_and_metrics_pipeline(workdir, capsys):
    preds = workdir / "preds.jsonl"
    code = main(["eval-baseline", "--manifest", str(workdir / "manifests.json"),
                 "--backend", f"scripted:{workdir / 'baseline.json'}",
                 "--out", str(preds)])
    assert code == EXIT_OK
    records = [json.loads(line) for line in preds.read_text().splitlines()]
    assert len(records) == 2
    assert all(r["verdict"] == "hazard" and r["timestamp"] == 1.6 for r in records)

    report_csv = workdir / "report.csv"
    code = main(["metrics", "--preds", str(preds),
                 "--annotations", str(workdir / "anns.json"),
                 "--model", "baseline", "--out", str(report_csv)])
    assert code == EXIT_OK
    rows = list(csv.DictReader(report_csv.open()))
    assert len(rows) == 1
    assert rows[0]["model"] == "baseline"
    assert float(rows[0]["hdr"]) == pytest.approx(1.0)
    # 1.6 lies outside [intent 1.0, deadline 1.5] but before pnr 1.7
    assert float(rows[0]["p_suboptimal"]) == pytest.approx(1.0)
    assert float(rows[0]["wss"]) == pytest.approx(50.0)
    assert "wss=50.0000" in capsys.readouterr().out


def test_metrics_custom_score_table(workdir):
    preds = workdir / "preds.jsonl"
    with preds.open("w") as fh:
        for cid in ("c0", "c1"):
            fh.write(json.dumps({"case_id": cid, "verdict": "hazard",
                                 "timestamp": 1.2}) + "\n")
    scores = workdir / "scores.json"
    scores.write_text(json.dumps({"premature": 0, "optimal": 80, "suboptimal": 40,
                                  "irreversible": 20, "missed": 0}), encoding="utf-8")
    out = workdir / "m.csv"
    assert main(["metrics", "--preds", str(preds),
                 "--annotations", str(workdir / "anns.json"),
                 "--scores", str(scores), "--out", str(out)]) == EXIT_OK
    row = next(csv.DictReader(out.open()))
    assert float(row["wss"]) == pytest.approx(80.0)


def test_metrics_unmatched_prediction_is_domain_error(workdir, capsys):
    preds = workdir / "preds.jsonl"
    preds.write_text(json.dumps({"case_id": "ghost", "verdict": "safe"}) + "\n",
                     encoding="utf-8")
    code = main(["metrics", "--preds", str(preds),
                 "--annotations", str(workdir / "anns.json"),
                 "--out", str(workdir / "m.csv")])
    assert code == EXIT_DOMAIN
    assert "metric_error" in capsys.readouterr().err


def test_errors_command(workdir, capsys):
    preds = workdir / "preds.jsonl"
    with preds.open("w") as fh:
        fh.write(json.dumps({"case_id": "c0", "verdict": "hazard",
                             "timestamp": 0.2}) + "\n")      # premature
        fh.write(json.dumps({"case_id": "c1", "verdict": "safe",
                             "reasoning_text": "all clear"}) + "\n")
    out = workdir / "errors.csv"
    assert main(["errors", "--preds", str(preds),
                 "--annotations", str(workdir / "anns.json"),
                 "--out", str(out)]) == EXIT_OK
    rows = {r["case_id"]: r["error_type"] for r in csv.DictReader(out.open())}
    assert rows == {"c0": "over_reaction", "c1": "visual_omission"}
    assert "over_reaction=0.5000" in capsys.readouterr().out


def test_agreement_command_byte_stable(workdir, capsys):
    ann_a = [make_ann(case_id=f"k{i}", intent=1.0 + 0.3 * i, pnr=1.8 + 0.3 * i,
                      deadline=1.6 + 0.3 * i, impact=2.2 + 0.3 * i,
                      end=2.6 + 0.3 * i, duration=6.0).to_dict() for i in range(5)]
    ann_b = [make_ann(case_id=f"k{i}", intent=1.0 + 0.3 * i, pnr=1.82 + 0.3 * i,
                      deadline=1.62 + 0.3 * i, impact=2.2 + 0.3 * i,
                      end=2.6 + 0.3 * i, duration=6.0).to_dict() for i in range(5)]
    (workdir / "a.json").write_text(json.dumps(ann_a), encoding="utf-8")
    (workdir / "b.json").write_text(json.dumps(ann_b), encoding="utf-8")

    out1, out2 = workdir / "agree1.csv", workdir / "agree2.csv"
    for out in (out1, out2):
        assert main(["agreement", "--a", str(workdir / "a.json"),
                     "--b", str(workdir / "b.json"), "--out", str(out)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()

    rows = list(csv.DictReader(out1.open()))
    assert [r["field"] for r in rows] == [
        "intent_onset", "pnr", "intervention_deadline", "impact", "action_end"]
    pnr_row = rows[1]
    assert float(pnr_row["mae_s"]) == pytest.approx(0.02)
    assert "n_both_valid=5" in capsys.readouterr().out


def test_ablate_command(workdir, capsys):
    out = workdir / "sweep.csv"
    code = main(["ablate", "--manifest", str(workdir / "manifests.json"),
                 "--annotations", str(workdir / "anns.json"),
                 "--fast", f"scripted:{workdir / 'fast.json'}",
                 "--slow", f"scripted:{workdir / 'slow.json'}",
                 "--fps", "1,5", "--out", str(out)])
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.open()))
    assert [r["fps"] for r in rows] == ["1.0", "5.0"]
    wss = {r["fps"]: float(r["wss"]) for r in rows}
    assert wss["5.0"] > wss["1.0"]
    assert "2 sweep rows" in capsys.readouterr().out


def test_ablate_bad_fps_list(workdir, capsys):
    code = main(["ablate", "--manifest", str(workdir / "manifests.json"),
                 "--annotations", str(workdir / "anns.json"),
                 "--fast", f"scripted:{workdir / 'fast.json'}",
                 "--slow", f"scripted:{workdir / 'slow.json'}",
                 "--fps", "1,banana", "--out", str(workdir / "s.csv")])
    assert code == EXIT_IO


def test_run_negative_scripted_latency_is_backend_error(workdir, capsys):
    bad = {"slow_responses": [{"t_start": 0.0, "t_end": 99.0, "verdict": 1,
                               "latency": -0.5}]}
    (workdir / "bad_slow.json").write_text(json.dumps(bad), encoding="utf-8")
    code = main(["run", "--manifest", str(workdir / "manifests.json"),
                 "--fast", f"scripted:{workdir / 'fast.json'}",
                 "--slow", f"scripted:{workdir / 'bad_slow.json'}",
                 "--out", str(workdir / "x.jsonl")])
    assert code == EXIT_IO
    assert "backend_error" in capsys.readouterr().err


def test_run_zero_rate_is_config_error(workdir, capsys):
    code = main(["run", "--manifest", str(workdir / "manifests.json"),
                 "--fast", f"scripted:{workdir / 'fast.json'}",
                 "--slow", f"scripted:{workdir / 'slow.json'}",
                 "--fps-low", "0", "--out", str(workdir / "x.jsonl")])
    assert code == EXIT_IO
    assert "config_error" in capsys.readouterr().err
