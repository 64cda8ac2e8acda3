"""End-to-end command-line coverage: every subcommand, exit codes, and
output-file stability."""

import csv
import gc
import io
import json
import math
import os
import random
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import streamguard.ablation as ablation
import streamguard.cli as cli
from streamguard.backends import ScriptedBackend, load_prompt
from streamguard.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, main
from streamguard.metrics import ErrorType
from streamguard.model import CaseAnnotation, DecisionTrace, PredictionRecord

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


def test_eval_baseline_one_frame_manifest(workdir, capsys):
    """A manifest whose only frame is at t = 0 has duration 0; it gets one
    window holding that frame, as ``run`` samples it once."""
    manifest = grid_manifest(case_id="c0", times=[0.0]).to_dict()
    (workdir / "one_frame.json").write_text(json.dumps([manifest]), encoding="utf-8")
    preds = workdir / "preds.jsonl"
    code = main(["eval-baseline", "--manifest", str(workdir / "one_frame.json"),
                 "--backend", f"scripted:{workdir / 'baseline.json'}", "--out", str(preds)])
    assert code == EXIT_OK
    [record] = [json.loads(line) for line in preds.read_text().splitlines()]
    assert record["case_id"] == "c0" and record["parse_status"] == "ok"
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("prompt,template", [
    ("detect", "baseline_detect"), ("severity", "severity"),
])
def test_eval_baseline_sends_the_chosen_prompt(workdir, monkeypatch, prompt, template):
    seen = []
    baseline_raw = ScriptedBackend.baseline_raw

    def spy(self, window_start, window_end, frames, prompt_text):
        seen.append((window_start, window_end, frames, prompt_text))
        return baseline_raw(self, window_start, window_end, frames, prompt_text)

    monkeypatch.setattr(ScriptedBackend, "baseline_raw", spy)
    code = main(["eval-baseline", "--manifest", str(workdir / "manifests.json"),
                 "--backend", f"scripted:{workdir / 'baseline.json'}",
                 "--prompt", prompt, "--out", str(workdir / "preds.jsonl")])
    assert code == EXIT_OK
    assert len(seen) == 6  # two 5 s cases, three windows each
    pre_overlaid = grid_manifest().pre_overlaid
    for start, end, frames, text in seen:
        assert text == load_prompt(template).render(frames, pre_overlaid, start=start, end=end)


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
                 "--fps-high", "0", "--out", str(workdir / "x.jsonl")])
    assert code == EXIT_IO
    assert "config_error" in capsys.readouterr().err


@pytest.mark.parametrize("table", [
    {"premature": 0, "optimal": 100, "suboptimal": 50, "irreversible": 25},
    {"premature": 0, "optimal": 100, "suboptimal": 50, "irreversible": 25, "missed": 0,
     "bogus": 1},
    [0, 100, 50, 25, 0],
    {"premature": "x", "optimal": 100, "suboptimal": 50, "irreversible": 25, "missed": 0},
    {"premature": 0, "optimal": True, "suboptimal": 50, "irreversible": 25, "missed": 0},
], ids=["missing_phase", "unknown_phase", "list", "non_numeric", "boolean"])
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
    assert code == EXIT_IO
    assert capsys.readouterr().err.startswith("config_error: bad --fps list: ")


@pytest.mark.parametrize("fps", ["0", "nan", "1e7", "1,inf", "", ",", "x", "1e-320"])
def test_ablate_bad_rate_is_config_error(workdir, capsys, fps):
    """Every rate list the coordinator cannot sample, an empty one included,
    is one configuration error, and no case runs."""
    out = workdir / "s.csv"
    code = main(["ablate", "--manifest", str(workdir / "manifests.json"),
                 "--annotations", str(workdir / "anns.json"),
                 "--fast", f"scripted:{workdir / 'fast.json'}",
                 "--slow", f"scripted:{workdir / 'slow.json'}",
                 "--fps", fps, "--out", str(out)])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("config_error: bad --fps list: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [["run", "--k", "3"], ["run", "--fps-low", "1"],
                                  ["ablate", "--k", "3"], ["ablate", "--fps-low", "1"],
                                  ["ablate", "--fps-high", "5"], ["ablate", "--clock", "real"]])
def test_fixed_protocol_options_are_usage_errors(workdir, capsys, argv):
    """The window size and idle rate are constants, ``ablate`` takes its high
    rates from ``--fps`` alone and always runs on the sim clock; the old
    options are unknown to argparse."""
    command, *extra = argv
    scripts = ["--fast", f"scripted:{workdir / 'fast.json'}",
               "--slow", f"scripted:{workdir / 'slow.json'}"]
    if command == "ablate":
        scripts += ["--annotations", str(workdir / "anns.json")]
    with pytest.raises(SystemExit) as exc_info:
        main([command, "--manifest", str(workdir / "manifests.json"), *scripts, *extra,
              "--out", str(workdir / "x.out")])
    assert exc_info.value.code == EXIT_IO
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (workdir / "x.out").exists()


def test_duplicate_manifest_case_id_is_manifest_error(workdir, capsys):
    """A repeated case_id fails before any backend is built (the backend files
    named here do not exist) and before any output is written."""
    manifests = workdir / "dup.json"
    manifests.write_text(json.dumps([grid_manifest(case_id=c, duration=2.0).to_dict()
                                     for c in ("c0", "c1", "c0")]), encoding="utf-8")
    missing = f"scripted:{workdir / 'missing.json'}"
    out = workdir / "out"
    for argv in (["run", "--fast", missing, "--slow", missing],
                 ["eval-baseline", "--backend", missing],
                 ["ablate", "--annotations", str(workdir / "anns.json"),
                  "--fast", missing, "--slow", missing]):
        code = main([*argv, "--manifest", str(manifests), "--out", str(out)])
        assert code == EXIT_IO
        assert capsys.readouterr().err == \
            f"manifest_error: duplicate case_id 'c0' in {manifests}\n"
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
    assert err == "manifest_error: manifest c0: frame 3: image_path must be a string, got 5\n"
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
    "scripted_fault_one_bound": ("scripted", {"faults": {"malformed": [[0.5]]}}, EXIT_IO,
                                 "backend_error: scripted backend: malformed interval [0.5] "),
    "scripted_fault_strings": ("scripted", {"faults": {"timeout": [["a", "b"]]}}, EXIT_IO,
                               "backend_error: scripted backend: timeout interval ['a', 'b'] "),
    "scripted_rule_nan_start": ("scripted", {"fast_schedule": [{"t_start": math.nan, "t_end": 1}]},
                                EXIT_IO, "backend_error: scripted backend: fast_schedule rule "
                                         "[nan, 1.0): interval must be finite and non-empty"),
    "scripted_rule_inf_end": ("scripted",
                              {"slow_responses": [{"t_start": 0, "t_end": math.inf, "verdict": 1}]},
                              EXIT_IO, "backend_error: scripted backend: slow_responses rule "
                                       "[0.0, inf): interval must be finite and non-empty"),
    "scripted_rule_reversed": ("scripted",
                               {"fast_schedule": [{"t_start": 2.0, "t_end": 1.0, "state": "red"}]},
                               EXIT_IO, "backend_error: scripted backend: fast_schedule rule "
                                        "[2.0, 1.0): interval must be finite and non-empty"),
    "scripted_fault_nan": ("scripted", {"faults": {"malformed": [[math.nan, 1.0]]}}, EXIT_IO,
                           "backend_error: scripted backend: malformed interval [nan, 1.0] "
                           "must be finite and non-empty"),
    "scripted_fault_reversed": ("scripted", {"faults": {"timeout": [[5.0, 4.0]]}}, EXIT_IO,
                                "backend_error: scripted backend: timeout interval [5.0, 4.0] "
                                "must be finite and non-empty"),
    "scripted_latency_string": ("scripted",
                                {"fast_schedule": [{"t_start": 0, "t_end": 1, "latency": "0.5"}]},
                                EXIT_IO, "backend_error: scripted backend: fast_schedule rule "
                                         "[0.0, 1.0): latency must be a JSON number, got '0.5'"),
    "scripted_start_bool": ("scripted", {"fast_schedule": [{"t_start": True, "t_end": 1}]},
                            EXIT_IO, "backend_error: scripted backend: t_start must be a JSON "
                                     "number, got True"),
    "endpoint_timeout": ("remote", {**_ENDPOINT, "timeout": "soon"}, EXIT_IO, "backend_error: "),
    "endpoint_retries": ("remote", {**_ENDPOINT, "max_retries": "x"}, EXIT_IO, "backend_error: "),
    "endpoint_timeout_nan": ("remote", {**_ENDPOINT, "timeout": math.nan}, EXIT_IO,
                             "backend_error: endpoint config "),
    "endpoint_timeout_inf": ("remote", {**_ENDPOINT, "timeout": math.inf}, EXIT_IO,
                             "backend_error: endpoint config "),
    "endpoint_retries_negative": ("remote", {**_ENDPOINT, "max_retries": -1}, EXIT_IO,
                                  "backend_error: endpoint config "),
    "endpoint_url_ftp": ("remote", {**_ENDPOINT, "base_url": "ftp://127.0.0.1:9"}, EXIT_IO,
                         "backend_error: endpoint config "),
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


@pytest.mark.parametrize("script,message", [
    ({"fast_shedule": [{"t_start": 0, "t_end": 99, "state": "red"}]},
     "unknown key 'fast_shedule' (known: fast_schedule, slow_responses, baseline_responses, "
     "faults)"),
    ({"faults": {"timeouts": [[0, 99]]}},
     "unknown key 'timeouts' in faults (known: malformed, timeout)"),
    ({"fast_schedule": [{"t_start": 0, "t_end": 99, "stat": "red"}]},
     "unknown key 'stat' in a fast_schedule rule (known: t_start, t_end, state, reason, latency)"),
    ({"slow_responses": [{"t_start": 0, "t_end": 99, "state": "red"}]},
     "unknown key 'state' in a slow_responses rule (known: t_start, t_end, verdict, latency)"),
    ({"baseline_responses": [{"t_start": 0, "t_end": 99, "verdict": 1}]},
     "unknown key 'verdict' in a baseline_responses rule (known: t_start, t_end, raw, latency)"),
], ids=["top_level", "faults", "fast_rule", "slow_rule", "baseline_rule"])
def test_unknown_script_key_is_backend_error(workdir, capsys, script, message):
    """A misspelled key would read as absent: its rules or faults would be
    dropped, and the case could score as calm."""
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(script), encoding="utf-8")
    argv = ["run", "--manifest", str(workdir / "manifests.json"), "--fast", f"scripted:{bad}",
            "--slow", f"scripted:{workdir / 'slow.json'}", "--out", str(workdir / "x.jsonl")]
    assert main(argv) == EXIT_IO
    assert capsys.readouterr().err == f"backend_error: scripted backend: {message}\n"


@pytest.mark.parametrize("state,shown", [("gren", "'gren'"), (None, "None")],
                         ids=["misspelled", "null"])
def test_unknown_fast_state_is_backend_error(workdir, capsys, state, shown):
    """A state the FastBrain parser cannot read would make every sample of its
    rule an unparseable reply, read as Yellow, in a run that exits 0."""
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({"fast_schedule": [{"t_start": 0, "t_end": 9, "state": state}]}),
                   encoding="utf-8")
    argv = ["run", "--manifest", str(workdir / "manifests.json"), "--fast", f"scripted:{bad}",
            "--slow", f"scripted:{workdir / 'slow.json'}", "--out", str(workdir / "x.jsonl")]
    assert main(argv) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == "" and not (workdir / "x.jsonl").exists()
    assert err == (f"backend_error: scripted backend: fast_schedule rule [0.0, 9.0): "
                   f"unknown state {shown} (known: green, yellow, red)\n")


def test_unknown_manifest_key_is_manifest_error(workdir, capsys):
    """A misspelled ``pre_overlaid`` would read as absent, and its default
    would leave the frame times out of every prompt for clean frames."""
    bad = workdir / "bad.json"
    bad.write_text(json.dumps([{"case_id": "a", "fps_native": 10.0, "pre_overlayed": False,
                                "frames": [{"t": 0.0}]}]), encoding="utf-8")
    argv = ["run", "--manifest", str(bad), "--fast", f"scripted:{workdir / 'fast.json'}",
            "--slow", f"scripted:{workdir / 'slow.json'}", "--out", str(workdir / "x.jsonl")]
    assert main(argv) == EXIT_IO
    assert capsys.readouterr().err == (
        "manifest_error: manifest a: unknown key 'pre_overlayed' "
        "(known: case_id, fps_native, frames, pre_overlaid)\n")


def test_unknown_endpoint_key_is_backend_error(workdir, capsys):
    """A misspelled ``timeout`` or ``max_retries`` would leave its default."""
    bad = workdir / "endpoint.json"
    bad.write_text(json.dumps({**_ENDPOINT, "timout": 5, "max_retry": 0}), encoding="utf-8")
    argv = ["run", "--manifest", str(workdir / "manifests.json"), "--fast", f"remote:{bad}",
            "--slow", f"scripted:{workdir / 'slow.json'}", "--out", str(workdir / "x.jsonl")]
    assert main(argv) == EXIT_IO
    assert capsys.readouterr().err == (
        f"backend_error: endpoint config {bad}: unknown key 'timout' (known: base_url, "
        "model_name, auth_token_env_var_name, timeout, max_retries, image_mode)\n")


@pytest.mark.parametrize("command", ["metrics", "errors"])
def test_unknown_prediction_key_is_parse_error(workdir, capsys, command):
    """A misspelled ``parse_status`` would read as ``"ok"``, and score a
    format error as a clean verdict."""
    preds = workdir / "preds.jsonl"
    preds.write_text('{"case_id": "c0", "verdict": "safe"}\n'
                     '{"case_id": "c1", "verdict": "safe", "parse_stauts": "format_error"}\n',
                     encoding="utf-8")
    assert main([command, "--preds", str(preds), "--annotations", str(workdir / "anns.json"),
                 "--out", str(workdir / "out.csv")]) == EXIT_IO
    assert capsys.readouterr().err == (
        f"parse_error: {preds}: line 2: prediction c1: unknown key 'parse_stauts' (known: "
        "case_id, verdict, timestamp, severity_claim, reasoning_text, raw_output, "
        "parse_status, parse_detail)\n")
    assert not (workdir / "out.csv").exists()


def test_unknown_annotation_key_is_invalid(workdir, capsys):
    """A misspelled ``is_valid`` would read as true, and ``agreement`` would
    count a case its annotator excluded."""
    bad = workdir / "bad.json"
    bad.write_text(json.dumps([{**make_ann(case_id="c0").to_dict(), "is_vaild": False}]),
                   encoding="utf-8")
    assert main(["validate", "--annotations", str(bad)]) == EXIT_DOMAIN
    assert capsys.readouterr().err == (
        "invalid: case c0: unknown key 'is_vaild' (known: case_id, location, danger_category, "
        "severity, difficulty, key_frames, key_entities, duration, is_valid)\n")


def test_unknown_key_frame_key_is_annotation_error(workdir, capsys):
    bad = workdir / "bad.json"
    case = make_ann(case_id="c0").to_dict()
    case["key_frames"]["pnr_s"] = 4.0
    bad.write_text(json.dumps([case]), encoding="utf-8")
    preds = workdir / "preds.jsonl"
    preds.write_text(json.dumps(_PRED) + "\n", encoding="utf-8")
    assert main(["metrics", "--preds", str(preds), "--annotations", str(bad),
                 "--out", str(workdir / "row.csv")]) == EXIT_DOMAIN
    assert capsys.readouterr().err == (
        "annotation_error: case c0: key_frames: unknown key 'pnr_s' (known: intent_onset, pnr, "
        "intervention_deadline, impact, action_end)\n")
    assert not (workdir / "row.csv").exists()


def test_unknown_frame_key_is_manifest_error(workdir, capsys):
    """A misspelled ``image_path`` would leave a ``remote:`` prompt with no image."""
    bad = workdir / "bad.json"
    bad.write_text(json.dumps([{"case_id": "a", "frames": [{"t": 0.0, "image_pth": "x.jpg"}]}]),
                   encoding="utf-8")
    argv = ["run", "--manifest", str(bad), "--fast", f"scripted:{workdir / 'fast.json'}",
            "--slow", f"scripted:{workdir / 'slow.json'}", "--out", str(workdir / "x.jsonl")]
    assert main(argv) == EXIT_IO
    assert capsys.readouterr().err == (
        "manifest_error: manifest a: frame 0: unknown key 'image_pth' (known: t, image_path)\n")


def test_whole_value_shape_error_names_the_file(workdir, capsys):
    """With --fast and --slow both scripted, the error must say which file."""
    bad = workdir / "bad.json"
    bad.write_text("[1]", encoding="utf-8")
    run = ["run", "--manifest", str(workdir / "manifests.json"),
           "--fast", f"scripted:{workdir / 'fast.json'}",
           "--slow", f"scripted:{bad}", "--out", str(workdir / "x.jsonl")]
    assert main(run) == EXIT_IO
    assert capsys.readouterr().err == (
        f"backend_error: {bad}: scripted backend must be a JSON object, got list\n")
    for content in ("[1]", "1"):  # an array element, and the whole value
        bad.write_text(content, encoding="utf-8")
        assert main([*run[:1], "--manifest", str(bad), *run[3:5], "--slow",
                     f"scripted:{workdir / 'slow.json'}", *run[7:]]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"manifest_error: {bad}: manifest must be a JSON object, got int\n")


@pytest.mark.parametrize("command", ["metrics", "errors"])
@pytest.mark.parametrize("content", ["", "\n \n\t\n"], ids=["empty", "blank"])
def test_predictions_file_without_records_is_refused(workdir, capsys, command, content):
    """A file with no record would score every annotated case as missed."""
    preds = workdir / "preds.jsonl"
    preds.write_text(content, encoding="utf-8")
    assert main([command, "--preds", str(preds), "--annotations", str(workdir / "anns.json"),
                 "--out", str(workdir / "out.csv")]) == EXIT_IO
    assert capsys.readouterr().err == f"parse_error: {preds}: no prediction records\n"
    assert not (workdir / "out.csv").exists()

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


def _errors_agree_with_metrics(directory, capsys, anns):
    """``errors``' rows are the annotated cases ``anns`` in order, and their
    error types, counted, are ``metrics``' six ``err_*`` columns and
    ``errors``' printed line."""
    argv = ["--preds", str(directory / "preds.jsonl"),
            "--annotations", str(directory / "anns.json"), "--out"]
    assert main(["metrics", *argv, str(directory / "m.csv")]) == EXIT_OK
    assert main(["errors", *argv, str(directory / "e.csv")]) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()[-1]
    [row] = read_csv(directory / "m.csv")
    errors = read_csv(directory / "e.csv")
    assert [r["case_id"] for r in errors] == anns
    n = len(errors)
    fractions = {e: sum(r["error_type"] == e.value for r in errors) / n for e in ErrorType}
    assert {e: float(row[f"err_{e.value}"]) for e in ErrorType} == fractions
    assert printed == "  ".join(f"{e.value}={f:.4f}" for e, f in fractions.items())


def test_errors_rows_are_what_metrics_counts(scored_dir, capsys):
    _errors_agree_with_metrics(scored_dir, capsys, [f"c{i}" for i in range(9)])


def test_errors_rows_are_what_metrics_counts_on_random_sets(tmp_path, capsys):
    """Criterion 2's random sets, with every difficulty, format errors and
    reasoning texts, in a shuffled annotation order."""
    rng = random.Random(20250218)
    for _ in range(40):
        n = rng.randrange(1, 25)
        ids = [f"c{i}" for i in range(n)]
        rng.shuffle(ids)
        anns, records = [], []
        for cid in ids:
            anns.append(make_ann(case_id=cid, difficulty=rng.choice(["D1", "D2", "D3"])).to_dict())
            kind = rng.random()
            text = rng.choice(["", "the kettle is fine", "all clear"])
            if kind < 0.3:
                records.append({"case_id": cid, "verdict": "safe", "reasoning_text": text})
            elif kind < 0.85:
                records.append({"case_id": cid, "verdict": "hazard",
                                "timestamp": round(rng.uniform(0, 6), 3),
                                "parse_status": rng.choice(["ok", "ok", "format_error"])})
        if not records:  # a predictions file with no record is refused
            continue
        rng.shuffle(records)
        (tmp_path / "anns.json").write_text(json.dumps(anns), encoding="utf-8")
        (tmp_path / "preds.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        _errors_agree_with_metrics(tmp_path, capsys, ids)


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


def _preds_error(workdir, capsys, preds) -> str:
    """The parse_error text after the path that ``metrics`` gives for ``preds``."""
    assert main(["metrics", "--preds", str(preds), "--annotations", str(workdir / "anns.json"),
                 "--out", str(workdir / "m.csv")]) == EXIT_IO
    err = capsys.readouterr().err
    prefix = f"parse_error: {preds}: "
    assert err.startswith(prefix) and err.endswith("\n")
    return err[len(prefix):-1]


def _preds_file(workdir, data: bytes):
    preds = workdir / "preds.jsonl"
    preds.write_bytes(data)
    return preds


@pytest.mark.parametrize("name", BAD_PREDICTION_LINES)
def test_predictions_line_error_text(workdir, capsys, name):
    """Each bad line gives the same one-line parse_error as ``json.loads``."""
    line, message = BAD_PREDICTION_LINES[name]
    preds = _preds_file(workdir, (line + "\n").encode())
    assert _preds_error(workdir, capsys, preds) == f"line 1: {message}"


@pytest.mark.parametrize("ws", "\x0b\x0c\x1c\x85\xa0\u2028\u3000",
                         ids=lambda c: f"U+{ord(c):04X}")
def test_predictions_line_strips_only_json_whitespace(workdir, capsys, ws):
    """Whitespace that ``str.strip`` drops but JSON does not allow, around a
    record or alone on a line, is that line's ``json.loads`` error, not a
    record or a blank line."""
    for line in (ws + _REC + ws, _REC + ws, ws):
        preds = _preds_file(workdir, (_REC + "\n" + line + "\n").encode())
        assert _preds_error(workdir, capsys, preds) == f"line 2: {_json_error(line)}"


_GOOD_LINES = "".join(f'{{"case_id": "c{i}", "verdict": "safe"}}\n' for i in range(500))


def test_predictions_json_error_names_its_line(workdir, capsys):
    bad = '{"case_id": "c1", "verdict": }'
    preds = _preds_file(workdir, (_GOOD_LINES + bad + "\n").encode())
    assert _preds_error(workdir, capsys, preds) == f"line 501: {_json_error(bad)}"


def test_predictions_record_error_names_its_line(workdir, capsys):
    """Blank lines count, and so does a CRLF line end."""
    preds = _preds_file(workdir, b'\n{"case_id": "c0", "verdict": "safe"}\r\n  \r\n'
                                 b'{"case_id": "c1", "verdict": "maybe"}\n')
    assert _preds_error(workdir, capsys, preds) == (
        "line 4: prediction c1: verdict must be 'safe' or 'hazard', got 'maybe'")


def test_predictions_utf8_error_names_its_line(workdir, capsys):
    """A bad byte past the reader's first decode chunk is placed in its line."""
    bad = b'{"case_id": "c\xff", "verdict": "safe"}'
    preds = _preds_file(workdir, (_GOOD_LINES * 2).encode() + bad + b"\n")
    assert preds.stat().st_size > 35_000
    assert _preds_error(workdir, capsys, preds) == f"line 1001: {_utf8_error(bad)}"


def test_predictions_error_is_the_first_in_file_order(workdir, capsys):
    """A JSON error on line 3 wins over a bad byte on line 5, though both are
    in the reader's first decode chunk."""
    good = [f'{{"case_id": "c{i}", "verdict": "safe"}}\n'.encode() for i in range(3)]
    bad = '{"case_id": "c3", "verdict": }'
    data = good[0] + good[1] + bad.encode() + b"\n" + good[2] + b'{"case_id": "c\xff"}\n'
    assert len(data) < 8192
    preds = _preds_file(workdir, data)
    assert _preds_error(workdir, capsys, preds) == f"line 3: {_json_error(bad)}"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_predictions_error_from_a_pipe_names_its_line(workdir, capsys):
    """A pipe is read in the same one pass as a file."""
    bad = '{"case_id": "c1", "verdict": }'
    read_end, write_end = os.pipe()
    os.write(write_end, (bad + "\n").encode())
    os.close(write_end)
    try:
        message = _preds_error(workdir, capsys, f"/dev/fd/{read_end}")
        assert message == f"line 1: {_json_error(bad)}"
    finally:
        os.close(read_end)


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
        message = f"parse_error: {bad}: line 1: prediction c0: int too large to convert to float"
    elif kind == "manifest":
        bad.write_text(json.dumps([{"case_id": "c0", "frames": [{"t": 0.0}, {"t": _HUGE}]}]),
                       encoding="utf-8")
        argv = ["run", "--manifest", str(bad), "--fast", f"scripted:{workdir / 'fast.json'}",
                "--slow", f"scripted:{workdir / 'slow.json'}", "--out", str(workdir / "x.jsonl")]
        code, message = EXIT_IO, "manifest_error: manifest c0: frame 1: int too large to convert to float"
    else:
        scores = workdir / "scores.json"
        scores.write_text(json.dumps({"premature": _HUGE, "optimal": 100, "suboptimal": 50,
                                      "irreversible": 25, "missed": 0}), encoding="utf-8")
        bad.write_text(json.dumps(_PRED) + "\n", encoding="utf-8")
        argv, code = [*metrics[:-2], "--scores", str(scores), *metrics[-2:]], EXIT_IO
        message = f"config_error: {scores}: bad score table entry: int too large to convert to float"
    assert main(argv) == code
    assert capsys.readouterr().err == message + "\n"


_LONG_INT = "1" * 5000  # past CPython's integer-string conversion limit


@pytest.mark.parametrize("kind", ["annotations", "predictions", "manifest", "scripted"])
def test_overlong_json_integer_is_one_line_error(workdir, capsys, kind):
    """A JSON integer too long to convert is the file's one-line error, naming it."""
    try:
        json.loads(_LONG_INT)
    except ValueError as exc:
        limit = str(exc)
    else:
        pytest.skip("this interpreter converts integers of any length")
    bad = workdir / "bad.json"
    run = ["run", "--manifest", str(workdir / "manifests.json"),
           "--fast", f"scripted:{workdir / 'fast.json'}",
           "--slow", f"scripted:{workdir / 'slow.json'}", "--out", str(workdir / "x.jsonl")]
    if kind == "annotations":
        bad.write_text(f'[{{"duration": {_LONG_INT}}}]', encoding="utf-8")
        argv, code = ["validate", "--annotations", str(bad)], EXIT_DOMAIN
        message = f"invalid: {bad} is not valid JSON: {limit}"
    elif kind == "predictions":
        bad.write_text(f'{{"case_id": "c0", "timestamp": {_LONG_INT}}}\n', encoding="utf-8")
        argv = ["metrics", "--preds", str(bad), "--annotations", str(workdir / "anns.json"),
                "--out", str(workdir / "m.csv")]
        code, message = EXIT_IO, f"parse_error: {bad}: line 1: {limit}"
    elif kind == "manifest":
        bad.write_text(f'[{{"case_id": "c0", "frames": [{{"t": {_LONG_INT}}}]}}]',
                       encoding="utf-8")
        argv, code = [*run[:2], str(bad), *run[3:]], EXIT_IO
        message = f"parse_error: {bad}: {limit}"
    else:
        bad.write_text(f'{{"fast_schedule": [{{"t_start": {_LONG_INT}}}]}}', encoding="utf-8")
        argv, code = [*run[:4], f"scripted:{bad}", *run[5:]], EXIT_IO
        message = f"backend_error: {bad}: {limit}"
    assert main(argv) == code
    assert capsys.readouterr().err == message + "\n"


# Nested past the json module's limit on every supported Python: 3.12 and
# later bound C recursion apart from the recursion limit, at up to 10,000 levels.
_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("kind", ["annotations", "manifest", "predictions", "scores",
                                  "scripted", "remote"])
def test_deeply_nested_input_is_typed_error(workdir, capsys, kind):
    """JSON nested too deep to decode is the file's one-line error, not a
    ``RecursionError`` traceback."""
    with pytest.raises(RecursionError) as info:
        json.loads(_DEEP)
    reason = str(info.value)
    bad = workdir / "bad.json"
    bad.write_text(_DEEP + "\n", encoding="utf-8")
    metrics = ["metrics", "--preds", str(bad), "--annotations", str(workdir / "anns.json"),
               "--out", str(workdir / "m.csv")]
    run = ["run", "--manifest", str(workdir / "manifests.json"),
           "--fast", f"scripted:{workdir / 'fast.json'}",
           "--slow", f"scripted:{workdir / 'slow.json'}", "--out", str(workdir / "x.jsonl")]
    if kind == "annotations":
        argv, code = ["validate", "--annotations", str(bad)], EXIT_DOMAIN
        message = f"invalid: {bad} is not valid JSON: {reason}"
    elif kind == "manifest":
        bad.write_text(f'[{{"case_id": "c0", "frames": {_DEEP}}}]', encoding="utf-8")
        argv, code = [*run[:2], str(bad), *run[3:]], EXIT_IO
        message = f"parse_error: {bad}: {reason}"
    elif kind == "predictions":
        argv, code = metrics, EXIT_IO
        message = f"parse_error: {bad}: line 1: {reason}"
    elif kind == "scores":
        preds = workdir / "preds.jsonl"
        preds.write_text(json.dumps(_PRED) + "\n", encoding="utf-8")
        argv = [*metrics[:2], str(preds), *metrics[3:-2], "--scores", str(bad), *metrics[-2:]]
        code, message = EXIT_IO, f"parse_error: {bad}: {reason}"
    else:
        argv, code = [*run[:4], f"{kind}:{bad}", *run[5:]], EXIT_IO
        message = f"backend_error: {bad}: {reason}"
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


@pytest.mark.parametrize("value", [
    {"max_retries": 2.7}, {"max_retries": True}, {"max_retries": "2"},
    {"timeout": "5"}, {"timeout": True},
], ids=["retries_float", "retries_true", "retries_string", "timeout_string", "timeout_true"])
def test_endpoint_values_are_not_coerced(workdir, capsys, value):
    """An endpoint file's retry count and timeout are taken as written."""
    bad = workdir / "endpoint.json"
    bad.write_text(json.dumps({**_ENDPOINT, **value}), encoding="utf-8")
    assert main(["run", "--manifest", str(workdir / "manifests.json"),
                 "--fast", f"remote:{bad}", "--slow", f"scripted:{workdir / 'slow.json'}",
                 "--out", str(workdir / "x.jsonl")]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"backend_error: endpoint config {bad}: endpoint ")
    assert err.count("\n") == 1, err


# --- the cyclic collector ----------------------------------------------------

def _gc_spies(monkeypatch) -> list:
    """Record ``(name, gc.isenabled())`` at each call of the read-side loaders,
    decoders and scorers, and of the backend-driven stages."""
    seen = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            seen.append((name, gc.isenabled()))
            return fn(*args, **kwargs)
        return wrapper

    for cls in (CaseAnnotation, PredictionRecord):
        monkeypatch.setattr(cls, "from_dict", spy(cls.__name__, cls.from_dict))
    for name in ("load_annotations", "_load_predictions", "build_report", "agreement_table",
                 "run_case", "run_baseline_case"):
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    monkeypatch.setattr(ablation, "sweep_fps", spy("sweep_fps", ablation.sweep_fps))
    return seen


def _read_side_argv(workdir, command):
    """The argv of one read-side command that succeeds (``*_ok``), fails on
    a missing file (exit 2, ``*_io``) or scores an unannotated record (exit 1,
    ``*_domain``), with the stages it must reach."""
    anns, out = str(workdir / "anns.json"), str(workdir / "out.csv")
    preds, ghost = workdir / "preds.jsonl", workdir / "ghost.jsonl"
    preds.write_text("".join(json.dumps({"case_id": c, "verdict": "safe"}) + "\n"
                             for c in ("c0", "c1")), encoding="utf-8")
    ghost.write_text(json.dumps({"case_id": "ghost", "verdict": "safe"}) + "\n",
                     encoding="utf-8")
    pair = [make_ann(case_id=f"k{i}", intent=1.0 + 0.3 * i, pnr=1.8 + 0.3 * i,
                     deadline=1.6 + 0.3 * i, impact=2.2 + 0.3 * i, end=2.6 + 0.3 * i,
                     duration=6.0).to_dict() for i in range(5)]
    (workdir / "a.json").write_text(json.dumps(pair), encoding="utf-8")
    missing = str(workdir / "missing.json")
    ann_load = {"load_annotations", "CaseAnnotation"}
    decoded = ann_load | {"_load_predictions", "PredictionRecord"}
    return {
        "validate_ok": (["validate", "--annotations", anns], EXIT_OK, ann_load),
        "metrics_ok": (["metrics", "--preds", str(preds), "--annotations", anns, "--out", out],
                       EXIT_OK, decoded | {"build_report"}),
        "errors_ok": (["errors", "--preds", str(preds), "--annotations", anns, "--out", out],
                      EXIT_OK, decoded | {"build_report"}),
        "agreement_ok": (["agreement", "--a", str(workdir / "a.json"),
                          "--b", str(workdir / "a.json"), "--out", out],
                         EXIT_OK, ann_load | {"agreement_table"}),
        "validate_io": (["validate", "--annotations", missing], EXIT_IO, {"load_annotations"}),
        "metrics_io": (["metrics", "--preds", str(preds), "--annotations", missing,
                        "--out", out], EXIT_IO, decoded - {"CaseAnnotation"}),
        "agreement_io": (["agreement", "--a", anns, "--b", missing, "--out", out],
                         EXIT_IO, ann_load),
        "metrics_domain": (["metrics", "--preds", str(ghost), "--annotations", anns,
                            "--out", out], EXIT_DOMAIN, decoded | {"build_report"}),
        "errors_domain": (["errors", "--preds", str(ghost), "--annotations", anns,
                           "--out", out], EXIT_DOMAIN, decoded | {"build_report"}),
    }[command]


@pytest.mark.parametrize("enabled", [True, False], ids=["caller_gc_on", "caller_gc_off"])
@pytest.mark.parametrize("command", [
    "validate_ok", "metrics_ok", "errors_ok", "agreement_ok", "validate_io", "metrics_io",
    "agreement_io", "metrics_domain", "errors_domain"])
def test_read_side_commands_run_with_gc_paused(workdir, monkeypatch, capsys, command, enabled):
    """Every decode and every scoring call of a read-side command runs with
    the collector off, and ``main`` hands the caller back the collector
    state it had, after success, a ``CliError`` or a ``MetricsError``."""
    argv, code, stages = _read_side_argv(workdir, command)
    seen = _gc_spies(monkeypatch)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert {name for name, _ in seen} == stages
    assert not any(on for _, on in seen), seen


def test_backend_commands_keep_gc_on(workdir, monkeypatch):
    """``run``, ``eval-baseline`` and ``ablate`` call backends, and a remote
    backend may leave cyclic garbage, so they never pause the collector."""
    manifests = str(workdir / "manifests.json")
    fast, slow = f"scripted:{workdir / 'fast.json'}", f"scripted:{workdir / 'slow.json'}"
    seen = _gc_spies(monkeypatch)
    was = gc.isenabled()
    try:
        gc.enable()
        assert main(["run", "--manifest", manifests, "--fast", fast, "--slow", slow,
                     "--out", str(workdir / "t.jsonl")]) == EXIT_OK
        assert main(["eval-baseline", "--manifest", manifests,
                     "--backend", f"scripted:{workdir / 'baseline.json'}",
                     "--out", str(workdir / "p.jsonl")]) == EXIT_OK
        assert main(["ablate", "--manifest", manifests,
                     "--annotations", str(workdir / "anns.json"), "--fast", fast,
                     "--slow", slow, "--fps", "1,5", "--out", str(workdir / "s.csv")]) == EXIT_OK
        assert gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert {name for name, _ in seen} == {"run_case", "run_baseline_case", "load_annotations",
                                          "CaseAnnotation", "sweep_fps"}
    assert all(on for _, on in seen), seen


# --- run's summary line and --jobs -------------------------------------------

def test_run_without_alerts_prints_no_mean_latency(workdir, capsys):
    """With no alert there is no latency to average: the summary says n/a."""
    run = ["run", "--fast", f"scripted:{workdir / 'green.json'}",
           "--slow", f"scripted:{workdir / 'slow.json'}", "--out", str(workdir / "t.jsonl")]
    (workdir / "green.json").write_text(json.dumps({"fast_schedule": []}), encoding="utf-8")
    (workdir / "empty.json").write_text("[]", encoding="utf-8")
    assert main([*run, "--manifest", str(workdir / "manifests.json")]) == EXIT_OK
    assert capsys.readouterr().out == "2 cases, 0 alerts, mean end-to-end latency n/a\n"
    assert main([*run, "--manifest", str(workdir / "empty.json")]) == EXIT_OK
    assert capsys.readouterr().out == "0 cases, 0 alerts, mean end-to-end latency n/a\n"


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_run_jobs_below_one_is_config_error(workdir, capsys, jobs):
    out = workdir / "t.jsonl"
    assert main(["run", "--manifest", str(workdir / "manifests.json"),
                 "--fast", f"scripted:{workdir / 'fast.json'}",
                 "--slow", f"scripted:{workdir / 'slow.json'}",
                 "--jobs", jobs, "--out", str(out)]) == EXIT_IO
    assert capsys.readouterr().err == "config_error: --jobs must be at least 1\n"
    assert not out.exists()


# --- which error a loaded file gives -----------------------------------------

def _utf8_error(data: bytes) -> str:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return str(exc)
    raise AssertionError("valid UTF-8")


@pytest.mark.parametrize("kind", ["annotations", "predictions", "manifest", "scripted", "remote"])
def test_non_utf8_file_is_one_line_error(workdir, capsys, kind):
    """A byte that is not UTF-8 is the file's one-line typed error, not a
    ``UnicodeDecodeError`` traceback."""
    bad = workdir / "bad.json"
    bad.write_bytes(b'[{"case_id": "\xff"}]\n')
    reason = _utf8_error(bad.read_bytes())
    run = ["run", "--manifest", str(workdir / "manifests.json"),
           "--fast", f"scripted:{workdir / 'fast.json'}",
           "--slow", f"scripted:{workdir / 'slow.json'}", "--out", str(workdir / "x.jsonl")]
    if kind == "annotations":
        argv, code = ["validate", "--annotations", str(bad)], EXIT_DOMAIN
        message = f"invalid: {bad} is not valid JSON: {reason}"
    elif kind == "predictions":
        argv = ["metrics", "--preds", str(bad), "--annotations", str(workdir / "anns.json"),
                "--out", str(workdir / "m.csv")]
        code, message = EXIT_IO, f"parse_error: {bad}: line 1: {reason}"
    elif kind == "manifest":
        argv, code = [*run[:2], str(bad), *run[3:]], EXIT_IO
        message = f"parse_error: {bad}: {reason}"
    else:
        argv, code = [*run[:4], f"{kind}:{bad}", *run[5:]], EXIT_IO
        message = f"backend_error: {bad}: {reason}"
    assert main(argv) == code
    assert capsys.readouterr().err == message + "\n"


def _bad_location_case() -> str:
    return json.dumps({**make_ann(case_id="a").to_dict(), "location": "garage"})


def _json_error(text: str) -> str:
    try:
        json.loads(text)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("valid JSON")


@pytest.mark.parametrize("tail, reason", [
    ("", "Expecting ',' delimiter"), ("] x", "Extra data")])
def test_json_error_after_a_bad_case_wins(tmp_path, capsys, tail, reason):
    """A JSON error later in an annotation file wins over an earlier case's error."""
    good = json.dumps(make_ann(case_id="b").to_dict())
    text = f"[{_bad_location_case()}, {good}{tail}"
    path = tmp_path / "anns.json"
    path.write_text(text, encoding="utf-8")
    assert _json_error(text).startswith(reason)
    assert main(["validate", "--annotations", str(path)]) == EXIT_DOMAIN
    assert capsys.readouterr().err == f"invalid: {path} is not valid JSON: {_json_error(text)}\n"


def test_duplicate_case_wins_over_a_later_bad_case(tmp_path, capsys):
    """Cases are checked in file order: a repeated case_id before a bad case is the error."""
    good = json.dumps(make_ann(case_id="a").to_dict())
    path = tmp_path / "anns.json"
    path.write_text(f"[{good}, {good}, {_bad_location_case()}]", encoding="utf-8")
    assert main(["validate", "--annotations", str(path)]) == EXIT_DOMAIN
    assert capsys.readouterr().err == f"invalid: duplicate case_id 'a' in {path}\n"


def test_manifest_json_error_wins_over_a_bad_manifest(workdir, capsys):
    """A truncated manifest file is a parse_error even when its first
    manifest's frames are out of order."""
    first = grid_manifest(case_id="c0", duration=1.0).to_dict()
    first["frames"] = first["frames"][::-1]
    text = json.dumps([first, grid_manifest(case_id="c1", duration=1.0).to_dict()])[:-1]
    bad = workdir / "bad.json"
    bad.write_text(text, encoding="utf-8")
    assert main(["run", "--manifest", str(bad), "--fast", f"scripted:{workdir / 'fast.json'}",
                 "--slow", f"scripted:{workdir / 'slow.json'}",
                 "--out", str(workdir / "x.jsonl")]) == EXIT_IO
    assert capsys.readouterr().err == f"parse_error: {bad}: {_json_error(text)}\n"


# --- one parser per process ----------------------------------------------------


def test_main_reuses_one_parser(workdir, capsys):
    main(["validate", "--annotations", str(workdir / "anns.json")])
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_repeated_call_leaves_no_cyclic_garbage(workdir, capsys):
    """A built parser is some hundreds of cyclic objects; only the first call
    in a process builds one, so a later call leaves nothing to collect."""
    argv = ["validate", "--annotations", str(workdir / "anns.json")]
    main(argv)
    gc.collect()
    assert main(argv) == EXIT_OK
    assert gc.collect() == 0


def test_subcommand_is_looked_up_per_call(workdir, monkeypatch, capsys):
    """A ``cmd_*`` function replaced after the parser is built is the one
    that runs: perfbench's tracer wraps them around a traced pass."""
    argv = ["metrics", "--preds", str(workdir / "none.jsonl"),
            "--annotations", str(workdir / "anns.json"), "--out", str(workdir / "row.csv")]
    assert main(argv) == EXIT_IO
    seen = []
    monkeypatch.setattr(cli, "cmd_metrics", lambda args: seen.append(args.preds) or 7)
    assert main(argv) == 7
    assert seen == [argv[2]]


def test_no_option_value_carries_over(workdir):
    """``run --fps-high 2`` and then ``run`` with its defaults write what a
    default ``run`` writes through a newly built parser."""
    def run(*extra) -> bytes:
        out = workdir / "traces.jsonl"
        assert main(["run", "--manifest", str(workdir / "manifests.json"),
                     "--fast", f"scripted:{workdir / 'fast.json'}",
                     "--slow", f"scripted:{workdir / 'slow.json'}",
                     *extra, "--out", str(out)]) == EXIT_OK
        return out.read_bytes()

    cli._parser.cache_clear()
    fresh = run()
    assert run("--fps-high", "2") != fresh
    assert run() == fresh


def test_usage_error_leaves_no_state(workdir, capsys):
    argv = ["validate", "--annotations", str(workdir / "anns.json")]
    cli._parser.cache_clear()
    assert main(argv) == EXIT_OK
    alone = capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["validate", "--annotations", str(workdir / "anns.json"), "--bogus", "1"])
    assert info.value.code == EXIT_IO
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    assert capsys.readouterr() == alone


@pytest.mark.parametrize("argv", [
    ["--help"], ["run", "--help"], ["metrics", "--preds", "x.jsonl"], ["nope"], [],
    ["run", "--fps-high", "fast"]],
    ids=["help", "run_help", "missing_option", "unknown_command", "no_command", "bad_value"])
def test_reused_parser_prints_what_a_new_one_does(workdir, capsys, argv):
    main(["validate", "--annotations", str(workdir / "anns.json")])  # the parser exists
    capsys.readouterr()

    def printed(parse):
        with pytest.raises(SystemExit) as info:
            parse(argv)
        return info.value.code, capsys.readouterr()

    assert printed(main) == printed(cli.build_parser().parse_args)


# --- the io_error boundary -----------------------------------------------------
#
# ``main`` alone turns an ``OSError`` into its one line; every file role of
# every command reaches it.  Backend files are ``backend_error``s instead.

def _argv(workdir, command) -> dict:
    """Each command's options, every file among them readable or writable."""
    _read_side_argv(workdir, "agreement_ok")  # writes preds.jsonl and a.json
    (workdir / "scores.json").write_text(json.dumps(
        {"premature": 0, "optimal": 100, "suboptimal": 50, "irreversible": 25, "missed": 0}),
        encoding="utf-8")
    anns, manifest = str(workdir / "anns.json"), str(workdir / "manifests.json")
    fast, slow = f"scripted:{workdir / 'fast.json'}", f"scripted:{workdir / 'slow.json'}"
    preds, pair, out = (str(workdir / name) for name in ("preds.jsonl", "a.json", "out.csv"))
    return {
        "validate": {"--annotations": anns},
        "run": {"--manifest": manifest, "--fast": fast, "--slow": slow, "--out": out},
        "eval-baseline": {"--manifest": manifest,
                          "--backend": f"scripted:{workdir / 'baseline.json'}", "--out": out},
        "metrics": {"--preds": preds, "--annotations": anns,
                    "--scores": str(workdir / "scores.json"), "--out": out},
        "errors": {"--preds": preds, "--annotations": anns, "--out": out},
        "agreement": {"--a": pair, "--b": pair, "--out": out},
        "ablate": {"--manifest": manifest, "--annotations": anns, "--fast": fast,
                   "--slow": slow, "--out": out},
    }[command]


_FILE_ROLES = [
    ("validate", "--annotations"), ("run", "--manifest"), ("run", "--out"),
    ("eval-baseline", "--manifest"), ("eval-baseline", "--out"), ("metrics", "--preds"),
    ("metrics", "--annotations"), ("metrics", "--scores"), ("metrics", "--out"),
    ("errors", "--preds"), ("errors", "--annotations"), ("errors", "--out"),
    ("agreement", "--a"), ("agreement", "--b"), ("agreement", "--out"),
    ("ablate", "--manifest"), ("ablate", "--annotations"), ("ablate", "--out")]


def _open_error(path, mode: str) -> str:
    """What ``open`` raises for ``path``, as its text."""
    try:
        open(path, mode, encoding="utf-8").close()
    except OSError as exc:
        return str(exc)
    raise AssertionError(f"{path} opened")


@pytest.mark.parametrize("fault", ["missing", "directory"])
@pytest.mark.parametrize("command,option", _FILE_ROLES,
                         ids=[f"{c}{o}" for c, o in _FILE_ROLES])
def test_unusable_file_is_one_io_error_line(workdir, capsys, command, option, fault):
    """A missing file or a directory where a file belongs, read or written:
    exit 2, nothing on stdout, and ``io_error: <the OSError>`` alone on stderr."""
    options = _argv(workdir, command)
    options[option] = str(workdir / "missing" / "x.json") if fault == "missing" else str(workdir)
    mode = "w" if option == "--out" else "r"
    code = main([command, *(x for pair in options.items() for x in pair)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_IO, "")
    assert captured.err == f"io_error: {_open_error(options[option], mode)}\n"


def test_os_error_inside_a_command_is_one_io_error_line(workdir, monkeypatch, capsys):
    """An ``OSError`` from deep in a command, here a prompt file that cannot
    be read, is the same one line, not a traceback."""
    def unreadable_prompt(*args, **kwargs):
        raise FileNotFoundError(2, "No such file or directory", "prompts/fast.txt")

    monkeypatch.setattr(cli, "run_case", unreadable_prompt)
    options = _argv(workdir, "run")
    code = main(["run", *(x for pair in options.items() for x in pair)])
    assert (code, *capsys.readouterr()) == (
        EXIT_IO, "", "io_error: [Errno 2] No such file or directory: 'prompts/fast.txt'\n")
