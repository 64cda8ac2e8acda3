"""Every command-line error case, and each command's summary line, as one
table of rows.

A row runs one command line in a fresh directory that holds the shared
valid inputs (``write_inputs``) and the row's own files, and says what the
command must do: its exit code and its one stderr line, or, on exit 0, its
exact stdout.  A failing command prints nothing on stdout, writes no
``--out`` file and no traceback, and prints exactly one stderr line; a
usage error's line (``streamguard <command>: error: ...``) is the last of
argparse's lines.

``tests/test_cli.py`` runs every row in-process through
``streamguard.cli.main``.  Run as a script, this module runs every row
through the command line it is given, each in a temporary directory::

    python tests/cli_cases.py streamguard
    PYTHONPATH=src python tests/cli_cases.py python -m streamguard.cli

It prints each mismatch and exits 1 on any, or if no row ran.  With
``--keep DIR`` each row runs in ``DIR/<row id>``, which is kept.

A row's id is the test id it has in tier-1: ``family[param]``, or
``family``.  Rows that share one test add ``#<variant>``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

EXIT_OK, EXIT_DOMAIN, EXIT_IO = 0, 1, 2


@dataclass(frozen=True)
class Case:
    id: str
    argv: tuple      # ``{dir}`` stands for the row's directory, here and in err and out
    code: int
    err: str = ""    # the stderr line, without its newline
    prefix: bool = False  # err is the line's prefix, not the whole line
    out: str = ""    # the exact stdout
    files: dict = field(default_factory=dict)  # name: bytes, str, or a value to json.dumps


# --- the shared valid inputs ---------------------------------------------------

KEY_FRAMES = {"intent_onset": 1.0, "pnr": 1.7, "intervention_deadline": 1.5, "impact": 2.0,
              "action_end": 2.5}
CASE = {"case_id": "c0", "location": "living_room", "danger_category": "C4", "severity": "L2",
        "difficulty": "D1", "key_frames": KEY_FRAMES, "key_entities": ["kettle"],
        "duration": 5.0, "is_valid": True}
PRED = {"case_id": "c0", "verdict": "hazard", "timestamp": 1.0}
ENDPOINT = {"base_url": "http://127.0.0.1:9", "model_name": "m"}


def manifest(case_id: str, duration: float = 5.0) -> dict:
    """A 10 fps manifest of ``duration`` seconds."""
    times = [round(i * 0.1, 6) for i in range(round(duration * 10) + 1)]
    return {"case_id": case_id, "fps_native": 10.0,
            "frames": [{"t": t, "image_path": f"{case_id}/{t:.2f}.jpg"} for t in times]}


def with_key_frames(case_id: str, **key_frames) -> dict:
    return {**CASE, "case_id": case_id, "key_frames": {**KEY_FRAMES, **key_frames}}


ANNS = [CASE, {**CASE, "case_id": "c1"}]
INPUTS = {
    "anns.json": ANNS,
    # Five cases whose key frames vary, enough for every agreement statistic.
    "pair.json": [with_key_frames(f"k{i}", **{k: v + 0.3 * i for k, v in KEY_FRAMES.items()})
                  for i in range(5)],
    "manifests.json": [manifest("c0"), manifest("c1")],
    "fast.json": {"fast_schedule": [{"t_start": 0.9, "t_end": 1.35, "state": "yellow"},
                                    {"t_start": 1.35, "t_end": 1.75, "state": "red"}]},
    "slow.json": {"slow_responses": [{"t_start": 0.0, "t_end": 99.0, "verdict": 0,
                                      "latency": 0.3}]},
    "baseline.json": {"baseline_responses": [{"t_start": 1.4, "t_end": 1.6,
                                              "raw": "Part 1: risky\nPart 2: 1.6"}]},
    "preds.jsonl": json.dumps(PRED) + "\n",
    "scores.json": {"premature": 0, "optimal": 100, "suboptimal": 50, "irreversible": 25,
                    "missed": 0},
}


def write_files(directory, files: dict) -> None:
    for name, content in files.items():
        if not isinstance(content, (bytes, str)):
            content = json.dumps(content)
        if isinstance(content, str):
            content = content.encode("utf-8")
        (Path(directory) / name).write_bytes(content)


def write_inputs(directory) -> None:
    write_files(directory, INPUTS)


# --- command lines ---------------------------------------------------------------

_MANIFEST, _FAST, _SLOW = "{dir}/manifests.json", "scripted:{dir}/fast.json", "scripted:{dir}/slow.json"
_OPTIONS = {
    "validate": {"annotations": "{dir}/anns.json"},
    "run": {"manifest": _MANIFEST, "fast": _FAST, "slow": _SLOW, "out": "{dir}/x.jsonl"},
    "eval-baseline": {"manifest": _MANIFEST, "backend": "scripted:{dir}/baseline.json",
                      "out": "{dir}/x.jsonl"},
    "metrics": {"preds": "{dir}/preds.jsonl", "annotations": "{dir}/anns.json",
                "out": "{dir}/x.csv"},
    "errors": {"preds": "{dir}/preds.jsonl", "annotations": "{dir}/anns.json",
               "out": "{dir}/x.csv"},
    "agreement": {"a": "{dir}/pair.json", "b": "{dir}/pair.json", "out": "{dir}/x.csv"},
    "ablate": {"manifest": _MANIFEST, "annotations": "{dir}/anns.json", "fast": _FAST,
               "slow": _SLOW, "out": "{dir}/x.csv"},
}


def command(name: str, **options) -> tuple:
    """``name`` on the shared inputs, with ``options`` (``fps_high`` for
    ``--fps-high``) replacing or following its own."""
    argv = [name]
    for option, value in {**_OPTIONS[name], **options}.items():
        argv += ["--" + option.replace("_", "-"), value]
    return tuple(argv)


BAD = "{dir}/bad.json"
# The command that loads a bad.json of each file kind, and its exit code.
LOADS = {
    "annotations": (command("validate", annotations=BAD), EXIT_DOMAIN),
    "manifest": (command("run", manifest=BAD), EXIT_IO),
    "scripted": (command("run", fast="scripted:" + BAD), EXIT_IO),
    "remote": (command("run", fast="remote:" + BAD), EXIT_IO),
    "predictions": (command("metrics", preds=BAD), EXIT_IO),
    "scores": (command("metrics", scores=BAD), EXIT_IO),
}


def bad(id: str, kind: str, content, err: str, prefix: bool = False) -> Case:
    argv, code = LOADS[kind]
    return Case(id, argv, code, err, prefix, files={"bad.json": content})


def error_text(decode, value) -> str:
    """The text of the error ``decode(value)`` raises."""
    try:
        decode(value)
    except (ValueError, RecursionError) as exc:
        return str(exc)
    raise AssertionError(f"{value!r} decoded")


# --- the table ---------------------------------------------------------------------

_NAN, _INF = float("nan"), float("inf")
_HUGE = 10 ** 400  # a JSON integer that float() cannot hold
_LONG_INT = "1" * 5000  # past CPython's integer-string conversion limit
try:
    json.loads(_LONG_INT)
    _LIMIT = None  # this interpreter converts integers of any length
except ValueError as exc:
    _LIMIT = str(exc)
# Nested past the json module's limit on every supported Python: 3.12 and
# later bound C recursion apart from the recursion limit, at up to 10,000 levels.
_DEEP = "[" * 100_000 + "]" * 100_000
_TOO_DEEP = error_text(json.loads, _DEEP)
_NON_UTF8 = b'[{"case_id": "\xff"}]\n'
_BOM = "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
_REC = '{"case_id": "c0", "verdict": "safe"}'


def _good_lines(start: int, stop: int) -> str:
    return "".join(f'{{"case_id": "c{i}", "verdict": "safe"}}\n' for i in range(start, stop))


_NO_VERDICT = '{"case_id": "c1", "verdict": }'
_ABORTED = json.dumps({"case_id": "c1", "verdict": "safe", "parse_status": "aborted",
                       "parse_detail": "[0.0,2.0]:timeout: scripted timeout at t=0.0"})
_BAD_LOCATION = json.dumps({**CASE, "location": "garage"})
_GOOD = json.dumps(ANNS[1])


def with_frame(index: int, **entry) -> list:
    """The 2 s manifest c0 with ``entry`` in frame ``index``."""
    m = manifest("c0", 2.0)
    m["frames"][index].update(entry)  # json writes NaN / Infinity literals
    return [m]


def _json_after_bad_case(tail: str, reason: str) -> Case:
    text = f"[{_BAD_LOCATION}, {_GOOD}{tail}"
    error = error_text(json.loads, text)
    assert error.startswith(reason), error
    return bad(f"json_error_after_a_bad_case_wins[{tail}-{reason}]", "annotations", text,
               f"invalid: {BAD} is not valid JSON: {error}")


def _reversed_then_truncated() -> str:
    first = manifest("c0", 1.0)
    first["frames"] = first["frames"][::-1]
    return json.dumps([first, manifest("c1", 1.0)])[:-1]


_UNKNOWN_SCRIPT_KEYS = {
    "top_level": ({"fast_shedule": [{"t_start": 0, "t_end": 99, "state": "red"}]},
                  "unknown key 'fast_shedule' (known: fast_schedule, slow_responses, "
                  "baseline_responses, faults)"),
    "faults": ({"faults": {"timeouts": [[0, 99]]}},
               "unknown key 'timeouts' in faults (known: malformed, timeout)"),
    "fast_rule": ({"fast_schedule": [{"t_start": 0, "t_end": 99, "stat": "red"}]},
                  "unknown key 'stat' in a fast_schedule rule (known: t_start, t_end, state, "
                  "reason, latency)"),
    "slow_rule": ({"slow_responses": [{"t_start": 0, "t_end": 99, "state": "red"}]},
                  "unknown key 'state' in a slow_responses rule (known: t_start, t_end, "
                  "verdict, latency)"),
    "baseline_rule": ({"baseline_responses": [{"t_start": 0, "t_end": 99, "verdict": 1}]},
                      "unknown key 'verdict' in a baseline_responses rule (known: t_start, "
                      "t_end, raw, latency)"),
}

# (the one line of a predictions file, its error after "line 1: ")
_BAD_PREDICTION_LINES = {
    "two_objects": (_REC + " " + _REC, "Extra data: line 1 column 38 (char 37)"),
    "object_then_junk": (_REC + " x", "Extra data: line 1 column 38 (char 37)"),
    "utf8_bom": ("\ufeff" + _REC, "Unexpected UTF-8 BOM (decode using utf-8-sig): "
                                 "line 1 column 1 (char 0)"),
    "bare_number": ("5", "prediction must be a JSON object, got int"),
    "empty_list": ("[]", "prediction must be a JSON object, got list"),
    "truncated_object": (_REC[:-5], "Unterminated string starting at: line 1 column 30 (char 29)"),
}

_SCORE_TABLES = {
    "missing_phase": {"premature": 0, "optimal": 100, "suboptimal": 50, "irreversible": 25},
    "unknown_phase": {**INPUTS["scores.json"], "bogus": 1},
    "list": [0, 100, 50, 25, 0],
    "non_numeric": {**INPUTS["scores.json"], "premature": "x"},
    "boolean": {**INPUTS["scores.json"], "optimal": True},
}

_FILE_ROLES = [
    ("validate", "annotations"), ("run", "manifest"), ("run", "out"),
    ("eval-baseline", "manifest"), ("eval-baseline", "out"), ("metrics", "preds"),
    ("metrics", "annotations"), ("metrics", "scores"), ("metrics", "out"),
    ("errors", "preds"), ("errors", "annotations"), ("errors", "out"),
    ("agreement", "a"), ("agreement", "b"), ("agreement", "out"),
    ("ablate", "manifest"), ("ablate", "annotations"), ("ablate", "out")]
_UNUSABLE = {"missing": ("{dir}/missing/x.json",
                         "[Errno 2] No such file or directory: '{dir}/missing/x.json'"),
             "directory": ("{dir}", "[Errno 21] Is a directory: '{dir}'")}


def _malformed(name, kind, content, err) -> Case:
    return bad(f"malformed_input_file_is_typed_error[{name}]", kind, content, err, prefix=True)


def _backend(message: str) -> str:
    return "backend_error: scripted backend: " + message


def _rule(kind: str, rule: dict) -> dict:
    return {kind: [rule]}


_RULE_ERR = "backend_error: scripted backend: {} rule [{}): "

CASES = [
    # --- each command's summary line ---
    Case("command_summary_line[validate_empty]", command("validate", annotations="{dir}/e.json"),
         EXIT_OK, out="0 cases OK\n", files={"e.json": []}),
    # An indented file: the annotation loader's one json.loads scan.
    Case("command_summary_line[validate_indented]", command("validate", annotations=BAD),
         EXIT_OK, out="2 cases OK\n", files={"bad.json": json.dumps(ANNS, indent=2)}),
    # One alert in the optimal phase, one after impact.
    Case("command_summary_line[metrics]", command("metrics", preds=BAD), EXIT_OK,
         out="model=  n_total=2  hdr=1.0000  ewp=0.5000  p_premature=0.0000  p_optimal=0.5000  "
             "p_suboptimal=0.0000  p_irreversible=0.0000  p_missed=0.5000  wss=50.0000\n",
         files={"bad.json": json.dumps(PRED) + "\n" + json.dumps(
             {"case_id": "c1", "verdict": "hazard", "timestamp": 2.2}) + "\n"}),
    Case("command_summary_line[errors]", command("errors", preds=BAD), EXIT_OK,
         out="format_error=0.0000  over_reaction=0.0000  response_lag=0.5000  "
             "visual_omission=0.0000  reasoning_deficit=0.0000  no_error=0.5000\n",
         files={"bad.json": json.dumps(PRED) + "\n" + json.dumps(
             {"case_id": "c1", "verdict": "hazard", "timestamp": 2.2}) + "\n"}),
    Case("command_summary_line[run]",
         command("run", manifest=BAD, out="{dir}/traces.jsonl"), EXIT_OK,
         out="1 cases, 1 alerts, mean end-to-end latency 0.050s\n",
         files={"bad.json": [manifest("c0")]}),
    # An indented manifest file: the array reader's path for separators
    # other than ", ".
    Case("command_summary_line[run_indented]",
         command("run", manifest=BAD, out="{dir}/two_traces.jsonl"), EXIT_OK,
         out="2 cases, 2 alerts, mean end-to-end latency 0.050s\n",
         files={"bad.json": json.dumps(INPUTS["manifests.json"], indent=2)}),

    # --- usage errors, from argparse ---
    Case("usage_error_names_the_command", ("metrics", "--preds", "x.jsonl"), EXIT_IO,
         "streamguard metrics: error: the following arguments are required: --annotations, "
         "--out"),
    # The window size and idle rate are constants, ``ablate`` takes its high
    # rates from ``--fps`` alone and always runs on the sim clock.
    *(Case(f"fixed_protocol_options_are_usage_errors[argv{i}]",
           (*command(name, out="{dir}/x.out"), *extra), EXIT_IO,
           f"streamguard: error: unrecognized arguments: {' '.join(extra)}")
      for i, (name, *extra) in enumerate([
          ["run", "--k", "3"], ["run", "--fps-low", "1"], ["ablate", "--k", "3"],
          ["ablate", "--fps-low", "1"], ["ablate", "--fps-high", "5"],
          ["ablate", "--clock", "real"]])),

    # --- validate ---
    Case("validate_missing_file", command("validate", annotations="{dir}/nope.json"), EXIT_IO,
         "io_error: [Errno 2] No such file or directory: '{dir}/nope.json'"),
    bad("validate_domain_error", "annotations", [with_key_frames("c0", impact=0.1)],
        "invalid: case c0: key frames must satisfy intent <= deadline <= pnr <= impact <= end, "
        "got (1.0, 1.5, 1.7, 0.1, 2.5)"),
    bad("validate_lifecycle_error_names_case[ordering]", "annotations",
        [CASE, with_key_frames("c1", impact=0.1)],
        "invalid: case c1: key frames must satisfy", prefix=True),
    bad("validate_lifecycle_error_names_case[deadline]", "annotations",
        [CASE, with_key_frames("c1", intervention_deadline=1.6)],
        "invalid: case c1: deadline 1.6 not within", prefix=True),
    # A misspelled ``is_valid`` would read as true, and ``agreement`` would
    # count a case its annotator excluded.
    bad("unknown_annotation_key_is_invalid", "annotations", [{**CASE, "is_vaild": False}],
        "invalid: case c0: unknown key 'is_vaild' (known: case_id, location, danger_category, "
        "severity, difficulty, key_frames, key_entities, duration, is_valid)"),
    # A JSON error later in the file wins over an earlier case's error.
    _json_after_bad_case("", "Expecting ',' delimiter"),
    _json_after_bad_case("] x", "Extra data"),
    # Cases are checked in file order: a repeated case_id before a bad case is the error.
    bad("duplicate_case_wins_over_a_later_bad_case", "annotations",
        f"[{json.dumps(CASE)}, {json.dumps(CASE)}, {_BAD_LOCATION}]",
        f"invalid: duplicate case_id 'c0' in {BAD}"),
    # json.loads's own BOM error, for the annotation loader's one scan and the
    # manifest loader's array reader alike.
    bad("file_with_a_bom_is_its_one_line_json_error#annotations", "annotations",
        "\ufeff" + json.dumps(ANNS), f"invalid: {BAD} is not valid JSON: {_BOM}"),
    bad("file_with_a_bom_is_its_one_line_json_error#manifest", "manifest",
        "\ufeff" + json.dumps(INPUTS["manifests.json"]), f"parse_error: {BAD}: {_BOM}"),

    # --- manifests ---
    # A repeated case_id fails before any backend is built (the backend files
    # named here do not exist) and before any output is written.
    *(Case(f"duplicate_manifest_case_id_is_manifest_error#{name}",
           command(name, manifest=BAD, **{role: "scripted:{dir}/missing.json"
                                          for role in roles}),
           EXIT_IO, f"manifest_error: duplicate case_id 'c0' in {BAD}",
           files={"bad.json": [manifest(c, 2.0) for c in ("c0", "c1", "c0")]})
      for name, roles in [("run", ["fast", "slow"]), ("eval-baseline", ["backend"]),
                          ("ablate", ["fast", "slow"])]),
    *(bad(f"run_bad_case_id_is_manifest_error[{name}]", "manifest",
          [{**manifest("c0", 2.0), "case_id": case_id}],
          "manifest_error: manifest case_id must be", prefix=True)
      for name, case_id in [("null", None), ("int", 7), ("empty", "")]),
    bad("run_non_string_image_path_is_manifest_error", "manifest", with_frame(3, image_path=5),
        "manifest_error: manifest c0: frame 3: image_path must be a string, got 5"),
    *(bad(f"run_bad_frame_time_is_manifest_error[{index}-{t}]", "manifest",
          with_frame(index, t=t), "manifest_error: manifest for c0 has a frame time ", prefix=True)
      for index, t in [(5, _NAN), (0, -1.0)]),
    # A misspelled ``pre_overlaid`` would read as absent, and its default
    # would leave the frame times out of every prompt for clean frames.
    bad("unknown_manifest_key_is_manifest_error", "manifest",
        [{"case_id": "a", "fps_native": 10.0, "pre_overlayed": False, "frames": [{"t": 0.0}]}],
        "manifest_error: manifest a: unknown key 'pre_overlayed' "
        "(known: case_id, fps_native, frames, pre_overlaid)"),
    # A misspelled ``image_path`` would leave a ``remote:`` prompt with no image.
    bad("unknown_frame_key_is_manifest_error", "manifest",
        [{"case_id": "a", "frames": [{"t": 0.0, "image_pth": "x.jpg"}]}],
        "manifest_error: manifest a: frame 0: unknown key 'image_pth' (known: t, image_path)"),
    # A truncated file is a parse_error even when its first manifest's frames
    # are out of order.
    bad("manifest_json_error_wins_over_a_bad_manifest", "manifest", _reversed_then_truncated(),
        f"parse_error: {BAD}: {error_text(json.loads, _reversed_then_truncated())}"),
    # With --fast and --slow both scripted, the error must say which file.
    Case("whole_value_shape_error_names_the_file#slow", command("run", slow="scripted:" + BAD),
         EXIT_IO, f"backend_error: {BAD}: scripted backend must be a JSON object, got list",
         files={"bad.json": [1]}),
    *(bad(f"whole_value_shape_error_names_the_file#{name}", "manifest", content,
          f"manifest_error: {BAD}: manifest must be a JSON object, got int")
      for name, content in [("array_element", [1]), ("whole_value", 1)]),

    # --- scripted backends and endpoint configs ---
    Case("run_unknown_backend_spec", command("run", fast="magic:nope", slow="magic:nope"),
         EXIT_IO, "backend_error: unknown backend spec 'magic:nope' "
                  "(use scripted:<path> or remote:<path>)"),
    Case("run_negative_scripted_latency_is_backend_error", command("run", slow="scripted:" + BAD),
         EXIT_IO, _RULE_ERR.format("slow_responses", "0.0, 99.0")
         + "latency must be finite and non-negative, got -0.5",
         files={"bad.json": _rule("slow_responses", {"t_start": 0.0, "t_end": 99.0,
                                                     "verdict": 1, "latency": -0.5})}),
    # A misspelled key would read as absent: its rules or faults would be
    # dropped, and the case could score as calm.
    *(bad(f"unknown_script_key_is_backend_error[{name}]", "scripted", script, _backend(message))
      for name, (script, message) in _UNKNOWN_SCRIPT_KEYS.items()),
    # A state the FastBrain parser cannot read would make every sample of its
    # rule an unparseable reply, read as Yellow, in a run that exits 0.
    *(bad(f"unknown_fast_state_is_backend_error[{name}]", "scripted",
          _rule("fast_schedule", {"t_start": 0, "t_end": 9, "state": state}),
          _RULE_ERR.format("fast_schedule", "0.0, 9.0")
          + f"unknown state {state!r} (known: green, yellow, red)")
      for name, state in [("misspelled", "gren"), ("null", None)]),
    # A misspelled ``timeout`` or ``max_retries`` would leave its default.
    bad("unknown_endpoint_key_is_backend_error", "remote", {**ENDPOINT, "timout": 5, "max_retry": 0},
        f"backend_error: endpoint config {BAD}: unknown key 'timout' (known: base_url, "
        "model_name, auth_token_env_var_name, timeout, max_retries, image_mode)"),
    # An endpoint file's retry count and timeout are taken as written.
    *(bad(f"endpoint_values_are_not_coerced[{name}]", "remote", {**ENDPOINT, **value},
          f"backend_error: endpoint config {BAD}: endpoint ", prefix=True)
      for name, value in [("retries_float", {"max_retries": 2.7}),
                          ("retries_true", {"max_retries": True}),
                          ("retries_string", {"max_retries": "2"}),
                          ("timeout_string", {"timeout": "5"}),
                          ("timeout_true", {"timeout": True})]),

    # --- predictions ---
    Case("metrics_unmatched_prediction_is_domain_error", command("metrics", preds=BAD),
         EXIT_DOMAIN, "metric_error: no annotation for case 'ghost'",
         files={"bad.json": '{"case_id": "ghost", "verdict": "safe"}\n'}),
    # A misspelled ``parse_status`` would read as "ok", and score a format
    # error as a clean verdict.
    *(Case(f"unknown_prediction_key_is_parse_error[{name}]", command(name, preds=BAD), EXIT_IO,
           f"parse_error: {BAD}: line 2: prediction c1: unknown key 'parse_stauts' (known: "
           "case_id, verdict, timestamp, severity_claim, reasoning_text, raw_output, "
           "parse_status, parse_detail)",
           files={"bad.json": _REC + '\n{"case_id": "c1", "verdict": "safe", '
                                     '"parse_stauts": "format_error"}\n'})
      for name in ["metrics", "errors"]),
    # An aborted case gave no usable output: it counts as a format error,
    # never as a clean Safe.
    *(Case(f"aborted_prediction_is_format_error[{name}]", command(name, preds=BAD), EXIT_OK,
           out=out, files={"bad.json": json.dumps(PRED) + "\n" + _ABORTED + "\n"})
      for name, out in [
          ("metrics", "model=  n_total=2  hdr=0.5000  ewp=1.0000  p_premature=0.0000  "
                      "p_optimal=0.5000  p_suboptimal=0.0000  p_irreversible=0.0000  "
                      "p_missed=0.5000  wss=50.0000\n"),
          ("errors", "format_error=0.5000  over_reaction=0.0000  response_lag=0.0000  "
                     "visual_omission=0.0000  reasoning_deficit=0.0000  no_error=0.5000\n")]),
    bad("misspelled_aborted_status_is_parse_error", "predictions",
        _ABORTED.replace('"aborted"', '"abort"') + "\n",
        f"parse_error: {BAD}: line 1: prediction c1: unknown parse_status 'abort'"),
    # A file with no record would score every annotated case as missed.
    *(Case(f"predictions_file_without_records_is_refused[{name}-{cmd}]", command(cmd, preds=BAD),
           EXIT_IO, f"parse_error: {BAD}: no prediction records", files={"bad.json": content})
      for cmd in ["metrics", "errors"] for name, content in [("empty", ""), ("blank", "\n \n\t\n")]),
    # Each bad line gives the same one-line parse_error as json.loads.
    *(bad(f"predictions_line_error_text[{name}]", "predictions", line + "\n",
          f"parse_error: {BAD}: line 1: {message}")
      for name, (line, message) in _BAD_PREDICTION_LINES.items()),
    # Whitespace that str.strip drops but JSON does not allow, around a record
    # or alone on a line, is that line's json.loads error, not a record or a
    # blank line.
    *(bad(f"predictions_line_strips_only_json_whitespace[U+{ord(ws):04X}]#{where}", "predictions",
          _REC + "\n" + line + "\n", f"parse_error: {BAD}: line 2: {error_text(json.loads, line)}")
      for ws in "\x0b\x0c\x1c\x85\xa0\u2028\u3000"
      for where, line in [("around", ws + _REC + ws), ("after", _REC + ws), ("alone", ws)]),
    bad("predictions_json_error_names_its_line", "predictions",
        _good_lines(0, 500) + _NO_VERDICT + "\n",
        f"parse_error: {BAD}: line 501: {error_text(json.loads, _NO_VERDICT)}"),
    # Blank lines count, and so does a CRLF line end.
    bad("predictions_record_error_names_its_line", "predictions",
        b'\n{"case_id": "c0", "verdict": "safe"}\r\n  \r\n{"case_id": "c1", "verdict": "maybe"}\n',
        f"parse_error: {BAD}: line 4: prediction c1: verdict must be 'safe' or 'hazard', "
        "got 'maybe'"),
    # A bad byte past the reader's first decode chunk (over 35,000 bytes in)
    # is placed in its line.
    bad("predictions_utf8_error_names_its_line", "predictions",
        (_good_lines(0, 500) * 2).encode() + b'{"case_id": "c\xff", "verdict": "safe"}\n',
        f"parse_error: {BAD}: line 1001: "
        + error_text(bytes.decode, b'{"case_id": "c\xff", "verdict": "safe"}')),
    # A JSON error on line 3 wins over a bad byte on line 5, though both are
    # in the reader's first decode chunk.
    bad("predictions_error_is_the_first_in_file_order", "predictions",
        (_good_lines(0, 2) + _NO_VERDICT + "\n" + _good_lines(2, 3)).encode()
        + b'{"case_id": "c\xff"}\n',
        f"parse_error: {BAD}: line 3: {error_text(json.loads, _NO_VERDICT)}"),

    # --- rates, --jobs and score tables ---
    Case("run_zero_rate_is_config_error", command("run", fps_high="0"), EXIT_IO,
         "config_error: sampling rates must be positive and finite, got 0.0"),
    Case("unsamplable_rate_is_rejected#run", command("run", fps_high="inf"), EXIT_IO,
         "config_error: sampling rates must be positive and finite, got inf"),
    Case("unsamplable_rate_is_rejected#ablate", command("ablate", fps="1,inf"), EXIT_IO,
         "config_error: bad --fps list: ", prefix=True),
    Case("ablate_bad_fps_list", command("ablate", fps="1,banana"), EXIT_IO,
         "config_error: bad --fps list: could not convert string to float: 'banana'"),
    # Every rate list the coordinator cannot sample, an empty one included, is
    # one configuration error, and no case runs.
    *(Case(f"ablate_bad_rate_is_config_error[{fps}]", command("ablate", fps=fps), EXIT_IO,
           "config_error: bad --fps list: ", prefix=True)
      for fps in ["0", "nan", "1e7", "1,inf", "", ",", "x", "1e-320"]),
    *(Case(f"run_jobs_below_one_is_config_error[{jobs}]", command("run", jobs=jobs), EXIT_IO,
           "config_error: --jobs must be at least 1") for jobs in ["0", "-1"]),
    *(bad(f"metrics_malformed_score_table_is_config_error[{name}]", "scores", table,
          f"config_error: {BAD}: ", prefix=True)
      for name, table in _SCORE_TABLES.items()),

    # --- domain errors of agreement and ablate ---
    # A case that one annotator excluded is in neither set's figures.
    Case("agreement_with_no_case_valid_in_both_is_domain_error",
         command("agreement", a="{dir}/a.json", b=BAD), EXIT_DOMAIN,
         "agreement_error: no cases are valid in both annotation sets",
         files={"a.json": [CASE], "bad.json": [{**CASE, "is_valid": False}, ANNS[1]]}),
    # Key frames 5e159 s apart square past the float range in seconds; the
    # statistics are taken in units of the largest key frame.
    Case("agreement_at_the_end_of_the_float_range", command("agreement", b=BAD), EXIT_OK,
         out="n_both_valid=5  kappa[danger_category]=1.0000  kappa[severity]=1.0000  "
             "kappa[difficulty]=1.0000\n",
         files={"bad.json": [{**with_key_frames(f"k{i}", **dict.fromkeys(KEY_FRAMES, 5e159)),
                              "duration": 1e160} for i in range(5)]}),
    Case("agreement_mae_beyond_the_float_range_is_domain_error", command("agreement", b=BAD),
         EXIT_DOMAIN, "agreement_error: mae: the absolute differences sum beyond the float range",
         files={"bad.json": [{**with_key_frames(f"k{i}", **dict.fromkeys(KEY_FRAMES, 1.5e308)),
                              "duration": 1.7e308} for i in range(5)]}),
    Case("ablate_case_without_annotation_is_domain_error",
         command("ablate", annotations=BAD, fps="1,5"), EXIT_DOMAIN,
         "sweep_error: no annotation for case 'c1'", files={"bad.json": [CASE]}),
    Case("unknown_key_frame_key_is_annotation_error", command("metrics", annotations=BAD),
         EXIT_DOMAIN, "annotation_error: case c0: key_frames: unknown key 'pnr_s' (known: "
                      "intent_onset, pnr, intervention_deadline, impact, action_end)",
         files={"bad.json": [with_key_frames("c0", pnr_s=4.0)]}),

    # --- every file kind: bad values, shapes and encodings ---
    _malformed("manifest_not_object", "manifest", [1], "manifest_error: "),
    _malformed("manifest_no_frames", "manifest", [{"case_id": "x"}], "manifest_error: "),
    _malformed("frame_time_string", "manifest", [{"case_id": "x", "frames": [{"t": "abc"}]}],
               "manifest_error: "),
    _malformed("frame_empty", "manifest", [{"case_id": "x", "frames": [{}]}], "manifest_error: "),
    _malformed("scripted_list", "scripted", [], "backend_error: "),
    _malformed("scripted_rule_no_start", "scripted", _rule("fast_schedule", {"t_end": 1.0}),
               "backend_error: "),
    _malformed("scripted_rule_bad_start", "scripted",
               _rule("fast_schedule", {"t_start": "a", "t_end": 1.0}), "backend_error: "),
    _malformed("scripted_verdict", "scripted",
               _rule("slow_responses", {"t_start": 0, "t_end": 1, "verdict": "x"}),
               "backend_error: "),
    _malformed("scripted_fault_one_bound", "scripted", {"faults": {"malformed": [[0.5]]}},
               _backend("malformed interval [0.5] ")),
    _malformed("scripted_fault_strings", "scripted", {"faults": {"timeout": [["a", "b"]]}},
               _backend("timeout interval ['a', 'b'] ")),
    _malformed("scripted_rule_nan_start", "scripted",
               _rule("fast_schedule", {"t_start": _NAN, "t_end": 1}),
               _RULE_ERR.format("fast_schedule", "nan, 1.0") + "interval must be finite and non-empty"),
    _malformed("scripted_rule_inf_end", "scripted",
               _rule("slow_responses", {"t_start": 0, "t_end": _INF, "verdict": 1}),
               _RULE_ERR.format("slow_responses", "0.0, inf") + "interval must be finite and non-empty"),
    _malformed("scripted_rule_reversed", "scripted",
               _rule("fast_schedule", {"t_start": 2.0, "t_end": 1.0, "state": "red"}),
               _RULE_ERR.format("fast_schedule", "2.0, 1.0") + "interval must be finite and non-empty"),
    _malformed("scripted_fault_nan", "scripted", {"faults": {"malformed": [[_NAN, 1.0]]}},
               _backend("malformed interval [nan, 1.0] must be finite and non-empty")),
    _malformed("scripted_fault_reversed", "scripted", {"faults": {"timeout": [[5.0, 4.0]]}},
               _backend("timeout interval [5.0, 4.0] must be finite and non-empty")),
    _malformed("scripted_latency_string", "scripted",
               _rule("fast_schedule", {"t_start": 0, "t_end": 1, "latency": "0.5"}),
               _RULE_ERR.format("fast_schedule", "0.0, 1.0") + "latency must be a JSON number, got '0.5'"),
    *(_malformed(f"scripted_{name}", "scripted", _rule(kind, {"t_start": 0, "t_end": 1, **rule}),
                 _RULE_ERR.format(kind, "0.0, 1.0") + f"latency must be finite and non-negative, "
                                                      f"got {rule['latency']}")
      for name, kind, rule in [
          ("fast_latency_inf", "fast_schedule", {"state": "red", "latency": _INF}),
          ("slow_latency_inf", "slow_responses", {"verdict": 1, "latency": _INF}),
          ("baseline_latency_nan", "baseline_responses", {"latency": _NAN})]),
    _malformed("scripted_start_bool", "scripted", _rule("fast_schedule", {"t_start": True, "t_end": 1}),
               _backend("t_start must be a JSON number, got True")),
    _malformed("endpoint_timeout", "remote", {**ENDPOINT, "timeout": "soon"}, "backend_error: "),
    _malformed("endpoint_retries", "remote", {**ENDPOINT, "max_retries": "x"}, "backend_error: "),
    *(_malformed(f"endpoint_{name}", "remote", {**ENDPOINT, **value}, "backend_error: endpoint config ")
      for name, value in [("timeout_nan", {"timeout": _NAN}), ("timeout_inf", {"timeout": _INF}),
                          ("retries_negative", {"max_retries": -1}),
                          ("url_ftp", {"base_url": "ftp://127.0.0.1:9"})]),
    *(_malformed(f"prediction_{name}", "predictions", content, "parse_error: ")
      for name, content in [("list", [1, 2]), ("string", json.dumps("x")),
                            ("timestamp", {**PRED, "timestamp": "abc"}),
                            ("reasoning_null", {**PRED, "reasoning_text": None}),
                            ("reasoning_int", {**PRED, "reasoning_text": 5}),
                            ("raw_output_null", {**PRED, "raw_output": None}),
                            ("parse_detail_int", {**PRED, "parse_detail": 5}),
                            ("case_id_null", {**PRED, "case_id": None})]),
    _malformed("annotation_int", "annotations", [1], "invalid: "),
    _malformed("annotation_duration", "annotations", [{**CASE, "duration": "long"}], "invalid: "),
    _malformed("annotation_duration_nan", "annotations", [{**CASE, "duration": _NAN}],
               "invalid: case c0: duration must be "),
    _malformed("annotation_duration_inf", "annotations", [{**CASE, "duration": _INF}],
               "invalid: case c0: duration must be "),
    _malformed("annotation_case_id_null", "annotations", [{**CASE, "case_id": None}], "invalid: "),
    _malformed("annotation_pnr", "annotations", [with_key_frames("c0", pnr="x")], "invalid: "),
    # A number too large for a float is the input's one-line error.
    bad("overlarge_json_integer_is_typed_error[annotations]", "annotations",
        [{**CASE, "duration": _HUGE}], "invalid: case c0: int too large to convert to float"),
    bad("overlarge_json_integer_is_typed_error[predictions]", "predictions",
        json.dumps({**PRED, "timestamp": _HUGE}) + "\n",
        f"parse_error: {BAD}: line 1: prediction c0: int too large to convert to float"),
    bad("overlarge_json_integer_is_typed_error[manifest]", "manifest",
        [{"case_id": "c0", "frames": [{"t": 0.0}, {"t": _HUGE}]}],
        "manifest_error: manifest c0: frame 1: int too large to convert to float"),
    bad("overlarge_json_integer_is_typed_error[scores]", "scores",
        {**INPUTS["scores.json"], "premature": _HUGE},
        f"config_error: {BAD}: bad score table entry: int too large to convert to float"),
    # A JSON integer too long to convert is the file's one-line error, naming it.
    *(bad(f"overlong_json_integer_is_one_line_error[{kind}]", kind, content,
          err.format(bad=BAD, limit=_LIMIT))
      for kind, content, err in [
          ("annotations", f'[{{"duration": {_LONG_INT}}}]', "invalid: {bad} is not valid JSON: {limit}"),
          ("predictions", f'{{"case_id": "c0", "timestamp": {_LONG_INT}}}\n',
           "parse_error: {bad}: line 1: {limit}"),
          ("manifest", f'[{{"case_id": "c0", "frames": [{{"t": {_LONG_INT}}}]}}]',
           "parse_error: {bad}: {limit}"),
          ("scripted", f'{{"fast_schedule": [{{"t_start": {_LONG_INT}}}]}}',
           "backend_error: {bad}: {limit}")]
      if _LIMIT),
    # JSON nested too deep to decode is the file's one-line error, not a
    # RecursionError traceback.
    *(bad(f"deeply_nested_input_is_typed_error[{kind}]", kind, content, err + _TOO_DEEP)
      for kind, content, err in [
          ("annotations", _DEEP, f"invalid: {BAD} is not valid JSON: "),
          ("manifest", f'[{{"case_id": "c0", "frames": {_DEEP}}}]', f"parse_error: {BAD}: "),
          ("predictions", _DEEP + "\n", f"parse_error: {BAD}: line 1: "),
          ("scores", _DEEP, f"parse_error: {BAD}: "),
          ("scripted", _DEEP, f"backend_error: {BAD}: "),
          ("remote", _DEEP, f"backend_error: {BAD}: ")]),
    # A byte that is not UTF-8 is the file's one-line typed error, not a
    # UnicodeDecodeError traceback.
    *(bad(f"non_utf8_file_is_one_line_error[{kind}]", kind, _NON_UTF8,
          err + error_text(bytes.decode, _NON_UTF8))
      for kind, err in [("annotations", f"invalid: {BAD} is not valid JSON: "),
                        ("predictions", f"parse_error: {BAD}: line 1: "),
                        ("manifest", f"parse_error: {BAD}: "),
                        ("scripted", f"backend_error: {BAD}: "),
                        ("remote", f"backend_error: {BAD}: ")]),
    # A missing file, or a directory where a file belongs, read or written:
    # io_error: and the OSError, whichever command and file it is.
    *(Case(f"unusable_file_is_one_io_error_line[{name}--{role}-{fault}]",
           command(name, **{role: path}), EXIT_IO, "io_error: " + error)
      for name, role in _FILE_ROLES for fault, (path, error) in _UNUSABLE.items()),
]


# --- checking a row --------------------------------------------------------------

def _fill(text: str, directory) -> str:
    return text.replace("{dir}", str(directory))


def fill(argv: tuple, directory) -> list:
    """``argv`` with ``{dir}`` as ``directory``."""
    return [_fill(a, directory) for a in argv]


def mismatches(case: Case, directory, code: int, out: str, err: str) -> list:
    """What a run of ``case`` in ``directory`` got wrong: one text per fault."""
    faults = []
    if code != case.code:
        faults.append(f"exit code {code}, expected {case.code}")
    if "Traceback" in err:
        faults.append("a traceback")
    expected = _fill(case.err, directory)
    if case.code == EXIT_OK:
        if (out, err) != (_fill(case.out, directory), expected):
            faults.append(f"printed {out!r} and {err!r}")
        return faults
    lines = err.split("\n")
    if expected.startswith("streamguard") and lines[0].startswith("usage: streamguard"):
        lines = lines[-2:]  # the error line and the final newline's empty tail
    if len(lines) != 2 or lines[1] != "":
        faults.append(f"not one stderr line: {err!r}")
    elif not (lines[0].startswith(expected) if case.prefix else lines[0] == expected):
        faults.append(f"stderr {lines[0]!r}, expected {expected!r}{' ...' * case.prefix}")
    if out:
        faults.append(f"printed {out!r}")
    if "--out" in case.argv:
        path = fill(case.argv, directory)[case.argv.index("--out") + 1]
        if os.path.isfile(path):
            faults.append(f"wrote {path}")
    return faults


def prepare(case: Case, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    write_inputs(directory)
    write_files(directory, case.files)


def main(args: list) -> int:
    keep = None
    if args[:1] == ["--keep"]:
        keep, args = args[1], args[2:]
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    start, failed = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            directory = os.path.abspath(os.path.join(keep or tmp, case.id))
            prepare(case, directory)
            result = subprocess.run([*args, *fill(case.argv, directory)], capture_output=True,
                                    text=True)
            faults = mismatches(case, directory, result.returncode, result.stdout, result.stderr)
            for fault in faults:
                print(f"{case.id}: {fault}")
            failed += bool(faults)
    print(f"{len(CASES)} rows, {failed} failed, {time.perf_counter() - start:.1f} s")
    return 1 if failed or not CASES else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
