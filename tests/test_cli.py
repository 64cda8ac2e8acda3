"""End-to-end command-line coverage: every subcommand, exit codes, and
output-file stability."""

import csv
import io
import json
import math
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from streamguard.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, main
from streamguard.model import DecisionTrace

from helpers import ann_set, grid_manifest, make_ann


def read_csv(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


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


@pytest.mark.parametrize("key_frames,error", [
    ({"impact": 0.1}, "key frames must satisfy"),
    ({"intervention_deadline": 3.6}, "deadline 3.6 not within"),
], ids=["ordering", "deadline"])
def test_validate_lifecycle_error_names_case(tmp_path, capsys, key_frames, error):
    bad = make_ann(case_id="c-bad").to_dict()
    bad["key_frames"].update(key_frames)
    anns = [make_ann(case_id="c-ok").to_dict(), bad]
    (tmp_path / "bad.json").write_text(json.dumps(anns), encoding="utf-8")
    assert main(["validate", "--annotations", str(tmp_path / "bad.json")]) == EXIT_DOMAIN
    assert capsys.readouterr().err.startswith(f"invalid: case c-bad: {error}")


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
    rows = read_csv(report_csv)
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
    [row] = read_csv(out)
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
    rows = {r["case_id"]: r["error_type"] for r in read_csv(out)}
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

    rows = read_csv(out1)
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
    rows = read_csv(out)
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


def test_eval_baseline_unreachable_endpoint_is_backend_error(workdir, capsys):
    with socket.socket() as sock:  # a port nothing listens on once closed
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    endpoint = {"base_url": f"http://127.0.0.1:{port}", "model_name": "m",
                "timeout": 5, "max_retries": 0, "image_mode": "path"}
    (workdir / "endpoint.json").write_text(json.dumps(endpoint), encoding="utf-8")
    preds = workdir / "preds.jsonl"
    code = main(["eval-baseline", "--manifest", str(workdir / "manifests.json"),
                 "--backend", f"remote:{workdir / 'endpoint.json'}",
                 "--out", str(preds)])
    assert code == EXIT_IO
    assert capsys.readouterr().err.startswith("backend_error: case c0: ")
    assert preds.read_text() == ""  # the failed case is not scored as safe


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


@pytest.mark.parametrize("table", [
    {"premature": 0, "optimal": 100, "suboptimal": 50, "irreversible": 25},
    {"premature": 0, "optimal": 100, "suboptimal": 50, "irreversible": 25, "missed": 0,
     "bogus": 1},
    [0, 100, 50, 25, 0],
    {"premature": "x", "optimal": 100, "suboptimal": 50, "irreversible": 25, "missed": 0},
], ids=["missing_phase", "unknown_phase", "list", "non_numeric"])
def test_metrics_malformed_score_table_is_config_error(workdir, capsys, table):
    preds = workdir / "preds.jsonl"
    preds.write_text(json.dumps({"case_id": "c0", "verdict": "safe"}) + "\n",
                     encoding="utf-8")
    scores = workdir / "scores.json"
    scores.write_text(json.dumps(table), encoding="utf-8")
    code = main(["metrics", "--preds", str(preds),
                 "--annotations", str(workdir / "anns.json"),
                 "--scores", str(scores), "--out", str(workdir / "m.csv")])
    assert code == EXIT_IO
    assert "config_error" in capsys.readouterr().err


def test_unsamplable_rate_is_rejected(workdir, capsys):
    scripts = ["--fast", f"scripted:{workdir / 'fast.json'}",
               "--slow", f"scripted:{workdir / 'slow.json'}"]
    code = main(["run", "--manifest", str(workdir / "manifests.json"), *scripts,
                 "--fps-high", "inf", "--out", str(workdir / "x.jsonl")])
    assert code == EXIT_IO
    assert "config_error" in capsys.readouterr().err
    code = main(["ablate", "--manifest", str(workdir / "manifests.json"),
                 "--annotations", str(workdir / "anns.json"), *scripts,
                 "--fps", "1,inf", "--out", str(workdir / "s.csv")])
    assert code == EXIT_DOMAIN
    assert "sweep_error" in capsys.readouterr().err


@pytest.mark.parametrize("lag", ["nan", "inf", "-1"])
def test_run_bad_actuation_lag_is_config_error(workdir, capsys, lag):
    out = workdir / "x.jsonl"
    code = main(["run", "--manifest", str(workdir / "manifests.json"),
                 "--fast", f"scripted:{workdir / 'fast.json'}",
                 "--slow", f"scripted:{workdir / 'slow.json'}",
                 f"--actuation-lag={lag}", "--out", str(out)])
    assert code == EXIT_IO
    assert capsys.readouterr().err.startswith(
        "config_error: actuation_lag must be finite and non-negative")
    assert not out.exists()


@pytest.mark.parametrize("case_id", [None, 7, ""], ids=["null", "int", "empty"])
def test_run_bad_case_id_is_manifest_error(workdir, capsys, case_id):
    manifest = {**grid_manifest(case_id="c0", duration=2.0).to_dict(), "case_id": case_id}
    path = workdir / "bad_manifest.json"
    path.write_text(json.dumps([manifest]), encoding="utf-8")
    out = workdir / "x.jsonl"
    code = main(["run", "--manifest", str(path),
                 "--fast", f"scripted:{workdir / 'fast.json'}",
                 "--slow", f"scripted:{workdir / 'slow.json'}", "--out", str(out)])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("manifest_error: manifest case_id must be") and err.count("\n") == 1
    assert not out.exists()


def test_run_non_string_image_path_is_manifest_error(workdir, capsys):
    manifest = grid_manifest(case_id="c0", duration=2.0).to_dict()
    manifest["frames"][3]["image_path"] = 5
    path = workdir / "bad_manifest.json"
    path.write_text(json.dumps([manifest]), encoding="utf-8")
    out = workdir / "x.jsonl"
    code = main(["run", "--manifest", str(path),
                 "--fast", f"scripted:{workdir / 'fast.json'}",
                 "--slow", f"scripted:{workdir / 'slow.json'}", "--out", str(out)])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert err == "manifest_error: manifest c0: frame: image_path must be a string, got 5\n"
    assert not out.exists()


def _write_manifest_with_time(workdir, index, t):
    """Manifests whose frame ``index`` has time ``t`` and is otherwise in order."""
    manifest = grid_manifest(case_id="c0", duration=2.0).to_dict()
    manifest["frames"][index]["t"] = t  # json writes NaN / Infinity literals
    path = workdir / "bad_manifest.json"
    path.write_text(json.dumps([manifest]), encoding="utf-8")
    return path


@pytest.mark.parametrize("index,t", [(5, math.nan), (0, -1.0)])
def test_run_bad_frame_time_is_manifest_error(workdir, capsys, index, t):
    code = main(["run", "--manifest", str(_write_manifest_with_time(workdir, index, t)),
                 "--fast", f"scripted:{workdir / 'fast.json'}",
                 "--slow", f"scripted:{workdir / 'slow.json'}",
                 "--out", str(workdir / "x.jsonl")])
    assert code == EXIT_IO
    assert capsys.readouterr().err.startswith("manifest_error: manifest for c0 has a frame time ")


def test_run_infinite_frame_time_is_manifest_error(workdir):
    # In a child process: an accepted infinite frame time on a case that never
    # alerts samples forever.
    (workdir / "quiet.json").write_text(json.dumps({"fast_schedule": []}), encoding="utf-8")
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "streamguard.cli", "run",
         "--manifest", str(_write_manifest_with_time(workdir, -1, math.inf)),
         "--fast", f"scripted:{workdir / 'quiet.json'}",
         "--slow", f"scripted:{workdir / 'slow.json'}",
         "--out", str(workdir / "x.jsonl")],
        env=env, capture_output=True, text=True, timeout=30)
    assert result.returncode == EXIT_IO
    assert result.stderr.startswith("manifest_error: manifest for c0 has a frame time ")


def test_run_overwrites_out(workdir):
    out = workdir / "traces.jsonl"
    argv = ["run", "--manifest", str(workdir / "manifests.json"),
            "--fast", f"scripted:{workdir / 'fast.json'}",
            "--slow", f"scripted:{workdir / 'slow.json'}", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert main(argv) == EXIT_OK
    assert len(out.read_text().splitlines()) == 2


_ENDPOINT = {"base_url": "http://127.0.0.1:9", "model_name": "m"}
_PRED = {"case_id": "c0", "verdict": "hazard", "timestamp": 1.0}
_CASE = make_ann(case_id="c0").to_dict()

# (input kind, the file's JSON content, expected exit code, stderr prefix)
MALFORMED_INPUTS = {
    "manifest_not_object": ("manifest", [1], EXIT_IO, "manifest_error: "),
    "manifest_no_frames": ("manifest", [{"case_id": "x"}], EXIT_IO, "manifest_error: "),
    "frame_time_string": ("manifest", [{"case_id": "x", "frames": [{"t": "abc"}]}],
                          EXIT_IO, "manifest_error: "),
    "frame_empty": ("manifest", [{"case_id": "x", "frames": [{}]}], EXIT_IO, "manifest_error: "),
    "scripted_list": ("scripted", [], EXIT_IO, "backend_error: "),
    "scripted_rule_no_start": ("scripted", {"fast_schedule": [{"t_end": 1.0}]},
                               EXIT_IO, "backend_error: "),
    "scripted_rule_bad_start": ("scripted", {"fast_schedule": [{"t_start": "a", "t_end": 1.0}]},
                                EXIT_IO, "backend_error: "),
    "scripted_verdict": ("scripted",
                         {"slow_responses": [{"t_start": 0, "t_end": 1, "verdict": "x"}]},
                         EXIT_IO, "backend_error: "),
    "endpoint_timeout": ("remote", {**_ENDPOINT, "timeout": "soon"}, EXIT_IO, "backend_error: "),
    "endpoint_retries": ("remote", {**_ENDPOINT, "max_retries": "x"}, EXIT_IO, "backend_error: "),
    "prediction_list": ("preds", [1, 2], EXIT_IO, "parse_error: "),
    "prediction_string": ("preds", "x", EXIT_IO, "parse_error: "),
    "prediction_timestamp": ("preds", {**_PRED, "timestamp": "abc"}, EXIT_IO, "parse_error: "),
    "prediction_reasoning_null": ("preds", {**_PRED, "reasoning_text": None},
                                  EXIT_IO, "parse_error: "),
    "prediction_reasoning_int": ("preds", {**_PRED, "reasoning_text": 5}, EXIT_IO, "parse_error: "),
    "prediction_raw_output_null": ("preds", {**_PRED, "raw_output": None},
                                   EXIT_IO, "parse_error: "),
    "prediction_parse_detail_int": ("preds", {**_PRED, "parse_detail": 5},
                                    EXIT_IO, "parse_error: "),
    "prediction_case_id_null": ("preds", {**_PRED, "case_id": None}, EXIT_IO, "parse_error: "),
    "annotation_int": ("annotations", [1], EXIT_DOMAIN, "invalid: "),
    "annotation_duration": ("annotations", [{**_CASE, "duration": "long"}],
                            EXIT_DOMAIN, "invalid: "),
    "annotation_duration_nan": ("annotations", [{**_CASE, "duration": math.nan}],
                                EXIT_DOMAIN, "invalid: case c0: duration must be "),
    "annotation_duration_inf": ("annotations", [{**_CASE, "duration": math.inf}],
                                EXIT_DOMAIN, "invalid: case c0: duration must be "),
    "annotation_case_id_null": ("annotations", [{**_CASE, "case_id": None}],
                                EXIT_DOMAIN, "invalid: "),
    "annotation_pnr": ("annotations", [{**_CASE, "key_frames": {**_CASE["key_frames"], "pnr": "x"}}],
                       EXIT_DOMAIN, "invalid: "),
}


@pytest.mark.parametrize("name", MALFORMED_INPUTS)
def test_malformed_input_file_is_typed_error(workdir, capsys, name):
    kind, content, code, prefix = MALFORMED_INPUTS[name]
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(content), encoding="utf-8")
    run = ["run", "--manifest", str(workdir / "manifests.json"),
           "--fast", f"scripted:{workdir / 'fast.json'}",
           "--slow", f"scripted:{workdir / 'slow.json'}", "--out", str(workdir / "x.jsonl")]
    if kind == "manifest":
        argv = [*run[:1], "--manifest", str(bad), *run[3:]]
    elif kind in ("scripted", "remote"):
        argv = [*run[:3], "--fast", f"{kind}:{bad}", *run[5:]]
    elif kind == "preds":
        argv = ["metrics", "--preds", str(bad), "--annotations", str(workdir / "anns.json"),
                "--out", str(workdir / "m.csv")]
    else:
        argv = ["validate", "--annotations", str(bad)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(prefix) and err.count("\n") == 1, err

@pytest.fixture()
def scored_dir(tmp_path):
    """Nine cases covering every phase and every error type, one without a
    record, scored with a non-integer phase table."""
    kf = dict(intent=1.0, deadline=1.5, pnr=1.7, impact=2.0, end=2.5, duration=5.0)
    difficulty = ["D1", "D2", "D1", "D3", "D1", "D3", "D2", "D2", "D1"]
    anns = [make_ann(case_id=f"c{i}", difficulty=d, **kf).to_dict()
            for i, d in enumerate(difficulty)]
    (tmp_path / "anns.json").write_text(json.dumps(anns), encoding="utf-8")
    records = [
        {"case_id": "c0", "verdict": "hazard", "timestamp": 0.2},   # premature
        {"case_id": "c1", "verdict": "hazard", "timestamp": 1.2},   # optimal
        {"case_id": "c2", "verdict": "hazard", "timestamp": 1.6},   # suboptimal
        {"case_id": "c3", "verdict": "hazard", "timestamp": 1.9},   # irreversible
        {"case_id": "c4", "verdict": "safe", "reasoning_text": "all clear"},
        {"case_id": "c5", "verdict": "safe", "reasoning_text": "the kettle is fine"},
        {"case_id": "c6", "verdict": "hazard", "timestamp": 1.2,
         "parse_status": "format_error"},
        {"case_id": "c8", "verdict": "hazard", "timestamp": 3.0},   # after impact
    ]  # c7 has no record
    (tmp_path / "preds.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    (tmp_path / "scores.json").write_text(json.dumps(
        {"premature": 7.3, "optimal": 97.1, "suboptimal": 41.7, "irreversible": 13.3,
         "missed": 0.1}), encoding="utf-8")
    return tmp_path


def test_metrics_output_pinned(scored_dir, capsys):
    out = scored_dir / "m.csv"
    assert main(["metrics", "--preds", str(scored_dir / "preds.jsonl"),
                 "--annotations", str(scored_dir / "anns.json"),
                 "--scores", str(scored_dir / "scores.json"),
                 "--model", "m", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (
        b"model,n_total,hdr,ewp,p_premature,p_optimal,p_suboptimal,p_irreversible,"
        b"p_missed,wss,err_format_error,err_over_reaction,err_response_lag,"
        b"err_visual_omission,err_reasoning_deficit,err_no_error\r\n"
        b"m,9,0.5555555555555556,0.6,0.1111111111111111,0.1111111111111111,"
        b"0.1111111111111111,0.1111111111111111,0.5555555555555556,17.766666666666666,"
        b"0.1111111111111111,0.1111111111111111,0.2222222222222222,0.2222222222222222,"
        b"0.1111111111111111,0.2222222222222222\r\n")
    assert capsys.readouterr().out == (
        "model=m  n_total=9  hdr=0.5556  ewp=0.6000  p_premature=0.1111  "
        "p_optimal=0.1111  p_suboptimal=0.1111  p_irreversible=0.1111  "
        "p_missed=0.5556  wss=17.7667\n")


def test_errors_output_pinned(scored_dir, capsys):
    out = scored_dir / "e.csv"
    assert main(["errors", "--preds", str(scored_dir / "preds.jsonl"),
                 "--annotations", str(scored_dir / "anns.json"),
                 "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (
        b"case_id,error_type\r\nc0,over_reaction\r\nc1,no_error\r\nc2,no_error\r\n"
        b"c3,response_lag\r\nc4,visual_omission\r\nc5,reasoning_deficit\r\n"
        b"c6,format_error\r\nc7,visual_omission\r\nc8,response_lag\r\n")
    assert capsys.readouterr().out == (
        "format_error=0.1111  over_reaction=0.1111  response_lag=0.2222  "
        "visual_omission=0.2222  reasoning_deficit=0.1111  no_error=0.2222\n")


_REC = '{"case_id": "c0", "verdict": "safe"}'


# (the one line of a predictions file, the parse_error text after the path)
BAD_PREDICTION_LINES = {
    "two_objects": (_REC + " " + _REC, "Extra data: line 1 column 38 (char 37)"),
    "object_then_junk": (_REC + " x", "Extra data: line 1 column 38 (char 37)"),
    "utf8_bom": ("\ufeff" + _REC, "Unexpected UTF-8 BOM (decode using utf-8-sig): "
                                 "line 1 column 1 (char 0)"),
    "bare_number": ("5", "prediction must be a JSON object, got int"),
    "empty_list": ("[]", "prediction must be a JSON object, got list"),
    "truncated_object": (_REC[:-5], "Unterminated string starting at: line 1 column 30 (char 29)"),
}


@pytest.mark.parametrize("name", BAD_PREDICTION_LINES)
def test_predictions_line_error_text(workdir, capsys, name):
    """Each bad line gives the same one-line parse_error as ``json.loads``."""
    line, message = BAD_PREDICTION_LINES[name]
    preds = workdir / "preds.jsonl"
    preds.write_text(line + "\n", encoding="utf-8")
    assert main(["metrics", "--preds", str(preds), "--annotations", str(workdir / "anns.json"),
                 "--out", str(workdir / "m.csv")]) == EXIT_IO
    assert capsys.readouterr().err == f"parse_error: {preds}: {message}\n"


_HUGE = 10 ** 400  # a JSON integer that float() cannot hold


@pytest.mark.parametrize("kind", ["annotations", "predictions", "manifest", "scores"])
def test_overlarge_json_integer_is_typed_error(workdir, capsys, kind):
    """A number too large for a float is the input's one-line error, not a traceback."""
    bad = workdir / "bad.json"
    metrics = ["metrics", "--preds", str(bad), "--annotations", str(workdir / "anns.json"),
               "--out", str(workdir / "m.csv")]
    if kind == "annotations":
        bad.write_text(json.dumps([{**_CASE, "duration": _HUGE}]), encoding="utf-8")
        argv, code = ["validate", "--annotations", str(bad)], EXIT_DOMAIN
        message = "invalid: case c0: int too large to convert to float"
    elif kind == "predictions":
        bad.write_text(json.dumps({**_PRED, "timestamp": _HUGE}) + "\n", encoding="utf-8")
        argv, code = metrics, EXIT_IO
        message = f"parse_error: {bad}: prediction c0: int too large to convert to float"
    elif kind == "manifest":
        bad.write_text(json.dumps([{"case_id": "c0", "frames": [{"t": 0.0}, {"t": _HUGE}]}]),
                       encoding="utf-8")
        argv = ["run", "--manifest", str(bad), "--fast", f"scripted:{workdir / 'fast.json'}",
                "--slow", f"scripted:{workdir / 'slow.json'}", "--out", str(workdir / "x.jsonl")]
        code, message = EXIT_IO, "manifest_error: manifest c0: frame: int too large to convert to float"
    else:
        scores = workdir / "scores.json"
        scores.write_text(json.dumps({"premature": _HUGE, "optimal": 100, "suboptimal": 50,
                                      "irreversible": 25, "missed": 0}), encoding="utf-8")
        bad.write_text(json.dumps(_PRED) + "\n", encoding="utf-8")
        argv, code = [*metrics[:-2], "--scores", str(scores), *metrics[-2:]], EXIT_IO
        message = f"config_error: {scores}: bad score table entry: int too large to convert to float"
    assert main(argv) == code
    assert capsys.readouterr().err == message + "\n"


def test_predictions_whitespace_lines_are_skipped(workdir, capsys):
    preds = workdir / "preds.jsonl"
    preds.write_text("\n   \n" + _REC + "\n\t\r\n \n", encoding="utf-8")
    assert main(["metrics", "--preds", str(preds), "--annotations", str(workdir / "anns.json"),
                 "--out", str(workdir / "m.csv")]) == EXIT_OK
    assert "n_total=2" in capsys.readouterr().out


def test_errors_csv_quotes_like_dictwriter(tmp_path):
    """Case ids that need quoting come out as ``csv.DictWriter`` wrote them."""
    ids = ["plain", "a,b", 'say "hi"', "two\nlines", " pad "]
    anns = [make_ann(case_id=cid).to_dict() for cid in ids]
    (tmp_path / "anns.json").write_text(json.dumps(anns), encoding="utf-8")
    (tmp_path / "preds.jsonl").write_text(
        json.dumps({"case_id": "a,b", "verdict": "hazard", "timestamp": 0.1}) + "\n",
        encoding="utf-8")
    out = tmp_path / "e.csv"
    assert main(["errors", "--preds", str(tmp_path / "preds.jsonl"),
                 "--annotations", str(tmp_path / "anns.json"), "--out", str(out)]) == EXIT_OK
    expected = io.StringIO(newline="")
    writer = csv.DictWriter(expected, fieldnames=["case_id", "error_type"])
    writer.writeheader()
    writer.writerows([{"case_id": cid, "error_type": "over_reaction" if cid == "a,b"
                       else "visual_omission"} for cid in ids])
    assert out.read_bytes() == expected.getvalue().encode("utf-8")
