"""End-to-end command-line coverage: every subcommand, exit codes, and
output-file stability.  Every error line a command prints, and each
command's summary line, is a row of ``cli_cases.CASES``, run here
in-process."""

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

import cli_cases
import streamguard.ablation as ablation
import streamguard.cli as cli
from cli_cases import CASES, command, fill
from streamguard.backends import ScriptedBackend, load_prompt
from streamguard.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, main
from streamguard.metrics import ErrorType
from streamguard.model import CaseAnnotation, DecisionTrace, PredictionRecord

from helpers import grid_manifest, make_ann


def read_csv(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture()
def workdir(tmp_path):
    """A tmp directory holding the table's shared valid inputs."""
    cli_cases.write_inputs(tmp_path)
    return tmp_path


# --- the table of error lines and summary lines ------------------------------

def _run_rows(cases, tmp_path, capsys) -> None:
    """Run each row in-process in its own directory: its exit code, and what
    it printed, are the row's."""
    for i, case in enumerate(cases):
        directory = tmp_path / str(i)
        cli_cases.prepare(case, directory)
        try:
            code = main(fill(case.argv, directory))
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        out, err = capsys.readouterr()
        faults = cli_cases.mismatches(case, directory, code, out, err)
        assert not faults, (case.id, faults)


def _table_test(groups: dict):
    """The test of one family of rows: ``groups`` maps each parameter id, or
    None for a family without one, to its rows."""
    if list(groups) == [None]:
        def test(tmp_path, capsys):
            _run_rows(groups[None], tmp_path, capsys)
        return test

    @pytest.mark.parametrize("cases", list(groups.values()), ids=list(groups))
    def test(tmp_path, capsys, cases):
        _run_rows(cases, tmp_path, capsys)
    return test


def _families() -> dict:
    """The rows by family and parameter id, from ids ``family[param]#variant``."""
    families = {}
    for case in CASES:
        family, bracket, param = case.id.partition("#")[0].partition("[")
        group = param[:-1] if bracket else None
        families.setdefault(family, {}).setdefault(group, []).append(case)
    return families


# One test per family, named as its one-off tests were, so that every row
# keeps the test id it had.
globals().update({"test_" + family: _table_test(groups)
                  for family, groups in _families().items()})


def test_readme_lists_every_error_prefix():
    """Each row's stderr prefix is a line of README's table of prefixes, with
    the row's exit code and its command."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = {line.split(" | ")[0][3:-1]: line for line in readme.splitlines()
             if line.startswith("| `")}
    for case in CASES:
        if case.code == EXIT_OK:
            continue
        prefix = ("usage:" if case.err.startswith("streamguard")
                  else case.err.partition(": ")[0] + ":")
        line = table.get(prefix, "")
        assert line.startswith(f"| `{prefix}` | {case.code} |"), (case.id, prefix)
        assert f"`{case.argv[0]}`" in line or "every command" in line, (case.id, line)


# --- commands that succeed ----------------------------------------------------

def test_validate_ok(workdir, capsys):
    assert main(["validate", "--annotations", str(workdir / "anns.json")]) == EXIT_OK
    assert "2 cases OK" in capsys.readouterr().out


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


# --- error cases that are no table row ----------------------------------------
#
# Each needs what a row cannot give: a port found free at run time, a time
# bound on a command that would never return, a pipe, or a patched module.

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
    assert capsys.readouterr().err.startswith("backend_error: case c0: [0.0,2.0]:transport: ")
    # Every case has its record, and a failed one is aborted, never a clean Safe.
    records = [json.loads(line) for line in preds.read_text().splitlines()]
    assert [(r["case_id"], r["parse_status"]) for r in records] == [("c0", "aborted"),
                                                                   ("c1", "aborted")]


def test_run_infinite_frame_time_is_manifest_error(workdir):
    # In a child process: an accepted infinite frame time on a case that never
    # alerts samples forever.
    cli_cases.write_files(workdir, {"quiet.json": {"fast_schedule": []},
                                    "bad.json": cli_cases.with_frame(-1, t=math.inf)})
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "streamguard.cli", "run",
         "--manifest", str(workdir / "bad.json"),
         "--fast", f"scripted:{workdir / 'quiet.json'}",
         "--slow", f"scripted:{workdir / 'slow.json'}",
         "--out", str(workdir / "x.jsonl")],
        env=env, capture_output=True, text=True, timeout=30)
    assert result.returncode == EXIT_IO
    assert result.stderr.startswith("manifest_error: manifest for c0 has a frame time ")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_predictions_error_from_a_pipe_names_its_line(workdir, capsys):
    """A pipe is read in the same one pass as a file."""
    bad = '{"case_id": "c1", "verdict": }'
    read_end, write_end = os.pipe()
    os.write(write_end, (bad + "\n").encode())
    os.close(write_end)
    preds = f"/dev/fd/{read_end}"
    try:
        assert main(fill(command("metrics", preds=preds), workdir)) == EXIT_IO
    finally:
        os.close(read_end)
    assert capsys.readouterr().err == (
        f"parse_error: {preds}: line 1: {cli_cases.error_text(json.loads, bad)}\n")


def test_os_error_inside_a_command_is_one_io_error_line(workdir, monkeypatch, capsys):
    """An ``OSError`` from deep in a command, here a prompt file that cannot
    be read, is the same one line, not a traceback."""
    def unreadable_prompt(*args, **kwargs):
        raise FileNotFoundError(2, "No such file or directory", "prompts/fast.txt")

    monkeypatch.setattr(cli, "run_case", unreadable_prompt)
    code = main(fill(command("run"), workdir))
    assert (code, *capsys.readouterr()) == (
        EXIT_IO, "", "io_error: [Errno 2] No such file or directory: 'prompts/fast.txt'\n")


def test_run_overwrites_out(workdir):
    out = workdir / "traces.jsonl"
    argv = ["run", "--manifest", str(workdir / "manifests.json"),
            "--fast", f"scripted:{workdir / 'fast.json'}",
            "--slow", f"scripted:{workdir / 'slow.json'}", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert main(argv) == EXIT_OK
    assert len(out.read_text().splitlines()) == 2


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


def test_predictions_whitespace_lines_are_skipped(workdir, capsys):
    preds = workdir / "preds.jsonl"
    preds.write_text('\n   \n{"case_id": "c0", "verdict": "safe"}\n\t\r\n \n', encoding="utf-8")
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


def _read_side_argv(workdir, name):
    """The argv of one read-side command that succeeds (``*_ok``), fails on
    a missing file (exit 2, ``*_io``) or scores an unannotated record (exit 1,
    ``*_domain``), with the stages it must reach."""
    (workdir / "ghost.jsonl").write_text('{"case_id": "ghost", "verdict": "safe"}\n',
                                         encoding="utf-8")
    missing, ghost = "{dir}/missing.json", "{dir}/ghost.jsonl"
    ann_load = {"load_annotations", "CaseAnnotation"}
    decoded = ann_load | {"_load_predictions", "PredictionRecord"}
    argv, code, stages = {
        "validate_ok": (command("validate"), EXIT_OK, ann_load),
        "metrics_ok": (command("metrics"), EXIT_OK, decoded | {"build_report"}),
        "errors_ok": (command("errors"), EXIT_OK, decoded | {"build_report"}),
        "agreement_ok": (command("agreement"), EXIT_OK, ann_load | {"agreement_table"}),
        "validate_io": (command("validate", annotations=missing), EXIT_IO, {"load_annotations"}),
        "metrics_io": (command("metrics", annotations=missing), EXIT_IO,
                       decoded - {"CaseAnnotation"}),
        "agreement_io": (command("agreement", b=missing), EXIT_IO, ann_load),
        "metrics_domain": (command("metrics", preds=ghost), EXIT_DOMAIN,
                           decoded | {"build_report"}),
        "errors_domain": (command("errors", preds=ghost), EXIT_DOMAIN, decoded | {"build_report"}),
    }[name]
    return fill(argv, workdir), code, stages


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
