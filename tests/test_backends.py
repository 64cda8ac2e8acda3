"""Scripted backend semantics, prompt templates, endpoint config, and a
round-trip against a local stub HTTP endpoint and its transport failures."""

import base64
import dataclasses
import http.client
import io
import json
import math
import threading
import time
import types
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings, strategies as st

from streamguard import backends
from streamguard.backends import (
    MAX_BODY_BYTES,
    BackendTimeoutError,
    EndpointConfig,
    PromptTemplate,
    RemoteBackend,
    ScriptedBackend,
    TransportError,
    load_prompt,
)
from streamguard.baseline import build_windows, run_baseline_case
from streamguard.coordinator import CoordinatorConfig, run_case
from streamguard.model import Frame, FrameManifest, SafetyState, SchemaError
from streamguard.parsing import (
    MAX_REPLY_CHARS,
    FormatError,
    parse_fast_output,
    parse_slow_output,
)

from helpers import fast_script, grid_manifest, reference_render

FAST_TEXT = load_prompt("fast").text
SLOW_TEXT = load_prompt("slow").text


# --- prompt templates --------------------------------------------------------

def test_load_bundled_prompts():
    for name in ("fast", "slow", "baseline_detect", "severity"):
        prompt = load_prompt(name)
        assert prompt.name == name and prompt.text
        assert load_prompt(name) is prompt  # each file is read once


def test_render_substitutes_window():
    prompt = load_prompt("baseline_detect")
    text = prompt.render((), True, start=1.5, end=3.5)
    assert "1.5s to 3.5s" in text
    assert "<Start>" not in text and "<End>" not in text


def test_render_requires_window_times():
    prompt = load_prompt("baseline_detect")
    with pytest.raises(ValueError):
        prompt.render((), True, start=1.5)


def test_render_timestamp_listing():
    prompt = PromptTemplate(name="t", text="Judge the frames.")
    frames = [Frame(t=0.0), Frame(t=0.2), Frame(t=0.4)]
    text = prompt.render(frames, False)
    assert "0.0s, 0.2s, 0.4s" in text
    assert prompt.render(frames, True) == "Judge the frames."  # times burned in


@pytest.mark.parametrize("name", ["fast", "slow"])
def test_render_without_placeholders(name):
    """A template with no placeholders renders to its text for pre-overlaid
    frames, and clean frames still get the listing."""
    prompt = load_prompt(name)
    assert "<Start>" not in prompt.text and "<End>" not in prompt.text
    frames = (Frame(t=0.6), Frame(t=0.8))
    assert prompt.render(frames, True) is prompt.text
    assert prompt.render(frames, False) == (
        prompt.text + "\n\nFrame timestamps (in order): 0.6s, 0.8s\n")


@pytest.mark.parametrize("text, start, end, message", [
    ("From <Start>.", None, None, "prompt t needs a start time"),
    ("Until <End>.", 1.0, None, "prompt t needs an end time"),
    ("<Start> to <End>.", 1.0, None, "prompt t needs an end time"),
    ("<Start> to <End>.", None, 2.0, "prompt t needs a start time"),
])
def test_render_placeholders_need_their_times(text, start, end, message):
    """The placeholders are found when the template is built; one without its
    time still raises on every render."""
    prompt = PromptTemplate(name="t", text=text)
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{message}$"):
            prompt.render((), True, start=start, end=end)
    assert prompt.render((), True, start=1.0, end=2.0) == text.replace(
        "<Start>", "1.0").replace("<End>", "2.0")


@pytest.mark.parametrize("name", ["baseline_detect", "severity"])
def test_clean_frame_window_prompt_points_at_the_listing(name):
    """The line that tells the model where each frame's time is names the
    RED overlay and, for clean frames, the listing the render appends."""
    text = load_prompt(name).render((Frame(t=0.5), Frame(t=1.0)), False, start=0.0, end=2.0)
    assert ("absolute timestamp: the RED one in its top-left corner, or, for frames without "
            'one, its time in the "Frame timestamps" list at the end of this prompt.'
            ) in " ".join(text.split())
    assert text.endswith("\n\nFrame timestamps (in order): 0.5s, 1.0s\n")


_BUNDLED = ("fast", "slow", "baseline_detect", "severity")
# Pieces of synthetic templates: both placeholders, adjacent and repeated,
# format and percent syntax, and near misses that must stay as written.
_PIECES = ["<Start>", "<End>", "<Start><End>", "<End><Start>", "{}", "{0}", "{start}", "%",
           "%s", "%.1f", "<Start", "Start>", "<END>", "<start>", "<<Start>>", "<End", "<",
           ">", "text", " ", "\n", "é"]
_TIMES = st.one_of(st.none(), st.sampled_from([0.0, -0.0, -1.25, 0.05, 0.25, 1e300, -1e300,
                                               math.inf, -math.inf, math.nan]),
                   st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=150)
@given(text=st.one_of(st.sampled_from(_BUNDLED).map(lambda n: load_prompt(n).text),
                      st.lists(st.sampled_from(_PIECES), max_size=8).map("".join)),
       frame_times=st.lists(st.sampled_from([0.0, 0.5, 12.25]), max_size=3),
       pre_overlaid=st.booleans(), start=_TIMES, end=_TIMES)
def test_render_matches_two_replace_reference(text, frame_times, pre_overlaid, start, end):
    """The split-once render gives what two ``str.replace`` scans give, or
    the same ValueError, for the bundled and for synthetic templates."""
    frames = [Frame(t=t) for t in frame_times]
    prompt = PromptTemplate(name="t", text=text)
    try:
        expected = reference_render("t", text, frames, pre_overlaid, start=start, end=end)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            prompt.render(frames, pre_overlaid, start=start, end=end)
        assert str(info.value) == str(exc)
    else:
        assert prompt.render(frames, pre_overlaid, start=start, end=end) == expected


# --- scripted backend --------------------------------------------------------

def test_scripted_fast_schedule_and_default():
    backend = fast_script([(1.0, 2.0, "red")])
    frame = Frame(t=1.5)
    raw, latency = backend.fast_raw(FAST_TEXT, frame)
    assert parse_fast_output(raw)[0] == SafetyState.RED
    assert latency == pytest.approx(ScriptedBackend.DEFAULT_FAST_LATENCY)
    # outside every rule: nominal
    raw, _ = backend.fast_raw(FAST_TEXT, Frame(t=5.0))
    assert parse_fast_output(raw)[0] == SafetyState.GREEN


def test_scripted_rules_half_open():
    backend = fast_script([(1.0, 2.0, "red")])
    at = lambda t: parse_fast_output(backend.fast_raw(FAST_TEXT, Frame(t=t))[0])[0]
    assert at(1.0) == SafetyState.RED
    assert at(2.0) == SafetyState.GREEN  # end is exclusive


def test_scripted_overlap_rejected():
    with pytest.raises(SchemaError):
        ScriptedBackend({"fast_schedule": [
            {"t_start": 0.0, "t_end": 2.0, "state": "green"},
            {"t_start": 1.0, "t_end": 3.0, "state": "red"},
        ]})


def test_scripted_slow_keyed_on_trigger_time():
    backend = ScriptedBackend({"slow_responses": [
        {"t_start": 1.0, "t_end": 2.0, "verdict": 1, "latency": 2.2}]})
    window = (Frame(t=0.6), Frame(t=0.8), Frame(t=1.0))
    raw, latency = backend.slow_raw(SLOW_TEXT, window)
    assert parse_slow_output(raw) == 1 and latency == pytest.approx(2.2)
    # outside every rule the scripted expert stays calm
    window = (Frame(t=4.0),)
    raw, _ = backend.slow_raw(SLOW_TEXT, window)
    assert parse_slow_output(raw) == 0


@pytest.mark.parametrize("key", ["fast_schedule", "slow_responses", "baseline_responses"])
def test_scripted_negative_latency_rejected(key):
    rule = {"t_start": 0.0, "t_end": 1.0, "latency": -0.5}
    with pytest.raises(SchemaError):
        ScriptedBackend({key: [rule]})
    with pytest.raises(SchemaError):
        ScriptedBackend({key: [{**rule, "latency": float("nan")}]})


@pytest.mark.parametrize("key", ["fast_schedule", "slow_responses", "baseline_responses"])
@pytest.mark.parametrize("latency", [-0.5, math.nan, math.inf, -math.inf])
def test_scripted_latency_error_text(key, latency):
    """A latency that is negative or not finite is refused in every rule list:
    an infinite one would reach the trace as a token JSON readers refuse."""
    with pytest.raises(SchemaError) as info:
        ScriptedBackend({key: [{"t_start": 0.0, "t_end": 1.0, "latency": latency}]})
    assert str(info.value) == (f"scripted backend: {key} rule [0.0, 1.0): latency must be "
                               f"finite and non-negative, got {latency}")


@pytest.mark.parametrize("verdict", ["x", None, [1], "1.5"])
def test_scripted_bad_verdict_rejected(verdict):
    rule = {"t_start": 0.0, "t_end": 1.0, "verdict": verdict}
    with pytest.raises(SchemaError, match=r"slow_responses rule \[0\.0, 1\.0\): verdict"):
        ScriptedBackend({"slow_responses": [rule]})
    for ok in (1, "1", True, 0.0):  # what slow_raw's int() accepted stays accepted
        ScriptedBackend({"slow_responses": [{**rule, "verdict": ok}]})


def test_scripted_faults():
    backend = ScriptedBackend({"faults": {"malformed": [(0.0, 1.0)], "timeout": [(2.0, 3.0)]}})
    raw, _ = backend.fast_raw(FAST_TEXT, Frame(t=0.5))
    with pytest.raises(FormatError):
        parse_fast_output(raw)
    with pytest.raises(BackendTimeoutError):
        backend.fast_raw(FAST_TEXT, Frame(t=2.5))


def _probe_times(rules, faults) -> list:
    """Every rule and fault edge, the floats either side of it, and times
    before, between and after the rules."""
    edges = {e for r in rules for e in (r["t_start"], r["t_end"])}
    edges |= {e for ivs in faults.values() for iv in ivs for e in iv}
    times = {0.0, 1.75, 3.25, 10.0}
    for e in edges:
        times |= {e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf)}
    return sorted(times)


def _per_call_fast_raw(rules, faults, t):
    """``fast_raw`` as a formula that encodes the matching rule's reply on every call."""
    if any(a <= t < b for a, b in faults.get("timeout", ())):
        raise BackendTimeoutError(f"scripted timeout at t={t}")
    if any(a <= t < b for a, b in faults.get("malformed", ())):
        return "the scene looks fine", ScriptedBackend.DEFAULT_FAST_LATENCY
    for rule in rules:
        if rule["t_start"] <= t < rule["t_end"]:
            raw = json.dumps({"category": rule.get("state", "green"),
                              "reason": rule.get("reason", "")})
            return raw, float(rule.get("latency", ScriptedBackend.DEFAULT_FAST_LATENCY))
    return json.dumps({"category": "green", "reason": ""}), ScriptedBackend.DEFAULT_FAST_LATENCY


_FAST_RULES = [
    {"t_start": 0.5, "t_end": 1.0, "state": "yellow"},  # neither reason nor latency
    {"t_start": 1.0, "t_end": 1.5, "state": "red", "reason": 'flame "on" \\ é', "latency": 0.2},
    {"t_start": 2.0, "t_end": 3.0, "reason": "no state given", "latency": 1},
    {"t_start": 3.5, "t_end": 4.0, "state": "Green", "reason": "clear"},
]


@pytest.mark.parametrize("faults", [{}, {"malformed": [(0.0, 0.25), (3.75, 5.0)],
                                         "timeout": [(2.5, 2.75)]}], ids=["clean", "faults"])
def test_scripted_fast_raw_matches_per_call_encoding(faults):
    """The encoded-once replies are the per-call formula's, at every rule and fault edge."""
    backend = ScriptedBackend({"fast_schedule": _FAST_RULES, "faults": faults})
    for t in _probe_times(_FAST_RULES, faults):
        try:
            expected = _per_call_fast_raw(_FAST_RULES, faults, t)
        except BackendTimeoutError as exc:
            with pytest.raises(BackendTimeoutError, match=f"^{exc}$"):
                backend.fast_raw(FAST_TEXT, Frame(t=t))
            continue
        got = backend.fast_raw(FAST_TEXT, Frame(t=t))
        assert got == expected and type(got[1]) is float, t


def _per_call_slow_raw(rules, faults, t):
    """``slow_raw`` as a formula that formats the matching rule's reply on every call."""
    if any(a <= t < b for a, b in faults.get("timeout", ())):
        raise BackendTimeoutError(f"scripted timeout at t={t}")
    for rule in rules:
        if rule["t_start"] <= t < rule["t_end"]:
            verdict = "DANGER" if int(rule.get("verdict", 0)) else "SAFE"
            raw = f"**ANALYSIS**: scripted response\n**VERDICT**: {verdict}"
            return raw, float(rule.get("latency", 1.0))
    return "**ANALYSIS**: scripted response\n**VERDICT**: SAFE", 1.0


def _per_call_baseline_raw(rules, window_start):
    """``baseline_raw`` as a formula that converts the matching rule's reply on every call."""
    for rule in rules:
        if rule["t_start"] <= window_start < rule["t_end"]:
            return str(rule.get("raw", "Part 2: Safe")), float(rule.get("latency", 0.5))
    return "Part 1: nothing notable.\nPart 2: Safe", 0.5


_SLOW_RULES = [
    {"t_start": 0.5, "t_end": 1.0, "verdict": 1},  # no latency
    {"t_start": 1.0, "t_end": 1.5, "verdict": "1", "latency": 2},
    {"t_start": 2.0, "t_end": 3.0, "verdict": True, "latency": 0.3},
    {"t_start": 3.5, "t_end": 4.0, "verdict": 0.0, "latency": 0.0},
    {"t_start": 4.0, "t_end": 4.5, "verdict": 0, "latency": 1.5},
    {"t_start": 5.0, "t_end": 5.5},  # neither verdict nor latency
]

_BASELINE_RULES = [
    {"t_start": 0.5, "t_end": 1.0, "raw": "Part 1: a cup tips.\nPart 2: 0.8"},  # no latency
    {"t_start": 1.0, "t_end": 1.5, "raw": 2.5, "latency": 2},  # not a string
    {"t_start": 2.0, "t_end": 3.0, "latency": 0.25},  # no raw
    {"t_start": 3.5, "t_end": 4.0, "raw": "", "latency": 0.0},
]


@pytest.mark.parametrize("faults", [{}, {"timeout": [(0.75, 1.25), (4.25, 6.0)]}],
                         ids=["clean", "timeout"])
def test_scripted_slow_and_baseline_raw_match_per_call_formatting(faults):
    """The built-once slow and baseline replies are the per-call formulas', at
    every rule and fault edge; the rules are given out of order."""
    backend = ScriptedBackend({"slow_responses": _SLOW_RULES[::-1],
                               "baseline_responses": _BASELINE_RULES[::-1], "faults": faults})
    for t in _probe_times(_SLOW_RULES + _BASELINE_RULES, faults):
        got = backend.baseline_raw(t, t + 2.0, (), "")
        assert got == _per_call_baseline_raw(_BASELINE_RULES, t) and type(got[1]) is float, t
        window = (Frame(t=0.0), Frame(t=t))  # keyed on the last frame
        try:
            expected = _per_call_slow_raw(_SLOW_RULES, faults, t)
        except BackendTimeoutError as exc:
            with pytest.raises(BackendTimeoutError, match=f"^{exc}$"):
                backend.slow_raw(SLOW_TEXT, window)
            continue
        got = backend.slow_raw(SLOW_TEXT, window)
        assert got == expected and type(got[1]) is float, t


def test_scripted_unencodable_fast_payload_rejected():
    with pytest.raises(SchemaError, match=r"fast_schedule rule \[0\.0, 1\.0\): cannot encode"):
        ScriptedBackend({"fast_schedule": [{"t_start": 0.0, "t_end": 1.0, "state": {"red"}}]})


@pytest.mark.parametrize("state", ["gren", None, "", "amber", 1, ["red"], "green!"])
def test_scripted_unknown_fast_state_rejected(state):
    """A state the reply parser cannot read is refused at load: scripted, it
    made every sample of its rule an unparseable reply, read as Yellow."""
    rule = {"t_start": 0.0, "t_end": 9.0, "state": state}
    with pytest.raises(SchemaError) as info:
        ScriptedBackend({"fast_schedule": [{"t_start": 10.0, "t_end": 11.0}, rule]})
    assert str(info.value) == (f"scripted backend: fast_schedule rule [0.0, 9.0): "
                               f"unknown state {state!r} (known: green, yellow, red)")


@pytest.mark.parametrize("state", ["green", "Yellow", " RED ", "red\n"])
def test_scripted_fast_state_is_matched_as_the_parser_matches(state):
    """Any state the parser reads loads, spelled as written, and parses to its state."""
    backend = ScriptedBackend({"fast_schedule": [{"t_start": 0.0, "t_end": 9.0, "state": state}]})
    raw, _latency = backend.fast_raw(FAST_TEXT, Frame(t=1.0))
    assert json.loads(raw)["category"] == state
    assert parse_fast_output(raw)[0] is SafetyState(state.strip().lower())


def test_scripted_error_precedence():
    """Of several errors, a script reports the first the constructor reads:
    the top-level keys, then the faults (keys, ``malformed``, ``timeout``),
    then the fast, slow and baseline lists, each rule whole and in list
    order, and a list's overlaps after its rules."""
    script = {
        "typo": 1,
        "faults": {"typo": 1, "malformed": [[1.0, 0.0]], "timeout": [[1.0, 0.0]]},
        "fast_schedule": [{"t_start": 0.0, "t_end": 1.0, "latency": -1.0},
                          {"t_start": 0.5, "t_end": 2.0, "typo": 1}],
        "slow_responses": [{"t_start": "x", "t_end": 1.0}],
        "baseline_responses": [{"t_start": 1.0, "t_end": 0.0}],
    }
    fast = script["fast_schedule"]
    steps = [  # each error, and the edit that removes it
        ("unknown key 'typo' (known", lambda: script.pop("typo")),
        ("unknown key 'typo' in faults", lambda: script["faults"].pop("typo")),
        ("malformed interval [1.0, 0.0]", lambda: script["faults"].pop("malformed")),
        ("timeout interval [1.0, 0.0]", lambda: script.pop("faults")),
        ("fast_schedule rule [0.0, 1.0): latency", lambda: fast[0].pop("latency")),
        ("unknown key 'typo' in a fast_schedule rule", lambda: fast[1].pop("typo")),
        ("fast_schedule rules overlap", lambda: script.pop("fast_schedule")),
        ("could not convert string to float: 'x'", lambda: script.pop("slow_responses")),
        ("baseline_responses rule [1.0, 0.0): interval", lambda: script.pop("baseline_responses")),
    ]
    for message, remove in steps:
        with pytest.raises(SchemaError) as info:
            ScriptedBackend(script)
        assert str(info.value).startswith(f"scripted backend: {message}"), str(info.value)
        remove()
    assert ScriptedBackend(script).timeout == ()


def _answers(backend, t) -> list:
    """What each of the three queries gives at stream time ``t``: the reply, or
    the error's class and text."""
    calls = (lambda: backend.fast_raw(FAST_TEXT, Frame(t=t)),
             lambda: backend.slow_raw(SLOW_TEXT, (Frame(t=0.0), Frame(t=t))),
             lambda: backend.baseline_raw(t, t + 2.0, (), ""))
    out = []
    for call in calls:
        try:
            out.append(call())
        except BackendTimeoutError as exc:
            out.append((type(exc), str(exc)))
    return out


@pytest.mark.parametrize("faults", [{}, {"malformed": [(0.0, 0.25), (3.75, 5.0)],
                                         "timeout": [(0.75, 1.25), (4.25, 6.0)]}],
                         ids=["clean", "faults"])
def test_scripted_file_matches_constructor(tmp_path, faults):
    """A script file, where each fault interval is a JSON list, answers every
    query as the constructor does on the same script dict with its intervals
    as tuples, at every rule and fault edge."""
    script = {"fast_schedule": _FAST_RULES, "slow_responses": _SLOW_RULES,
              "baseline_responses": _BASELINE_RULES, "faults": faults}
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script), encoding="utf-8")
    loaded = ScriptedBackend.from_file(str(path))
    built = ScriptedBackend(script)
    for t in _probe_times(_FAST_RULES + _SLOW_RULES + _BASELINE_RULES, faults):
        assert _answers(loaded, t) == _answers(built, t), t


# --- endpoint config ---------------------------------------------------------

def test_endpoint_config_from_file(tmp_path):
    path = tmp_path / "endpoint.json"
    path.write_text(json.dumps({
        "base_url": "http://localhost:9", "model_name": "demo",
        "auth_token_env_var_name": "DEMO_TOKEN", "timeout": 5, "image_mode": "path",
    }), encoding="utf-8")
    cfg = EndpointConfig.from_file(str(path))
    assert cfg.model_name == "demo"
    assert cfg.image_mode == "path"
    assert cfg.auth_token_env_var_name == "DEMO_TOKEN"


def test_endpoint_config_validation():
    with pytest.raises(SchemaError):
        EndpointConfig(base_url="x", model_name="m", timeout=0)
    with pytest.raises(SchemaError):
        EndpointConfig(base_url="x", model_name="m", image_mode="inline")


@pytest.mark.parametrize("field,value", [
    ("timeout", math.nan), ("timeout", math.inf), ("timeout", -1.0),
    ("max_retries", -1), ("max_retries", True), ("max_retries", 1.0), ("max_retries", None),
])
def test_endpoint_config_rejects_bad_timeout_and_retries(field, value):
    """A budget that can never be met, or a retry count that makes no attempt,
    is refused when the config is built, not when the first query fails."""
    with pytest.raises(SchemaError, match=f"endpoint {field} must be"):
        EndpointConfig(base_url="x", model_name="m", **{field: value})
    EndpointConfig(base_url="http://x", model_name="m", timeout=0.2, max_retries=0)


@pytest.mark.parametrize("base_url", ["ftp://127.0.0.1:9", "file:///tmp", "127.0.0.1:9", "", None])
def test_endpoint_config_rejects_non_http_url(base_url):
    """A URL no attempt could reach is refused at build time, not retried."""
    with pytest.raises(SchemaError, match="endpoint base_url must be an http or https URL"):
        EndpointConfig(base_url=base_url, model_name="m")
    EndpointConfig(base_url="HTTPS://example.invalid", model_name="m")


@pytest.mark.parametrize("field,value", [
    ("max_retries", 2.7), ("max_retries", True), ("max_retries", "2"),
    ("timeout", "5"), ("timeout", True), ("timeout", None),
])
def test_endpoint_config_from_file_takes_values_as_written(tmp_path, field, value):
    """The file's values reach the constructor's checks unconverted, so a
    float retry count or a string or boolean timeout is refused, not read as
    2, 1 or 5.0."""
    path = tmp_path / "endpoint.json"
    path.write_text(json.dumps({"base_url": "http://x", "model_name": "m", field: value}),
                    encoding="utf-8")
    with pytest.raises(SchemaError, match=f"endpoint config {path}: endpoint {field} must be"):
        EndpointConfig.from_file(str(path))
    with pytest.raises(SchemaError, match=f"endpoint {field} must be"):
        EndpointConfig(base_url="http://x", model_name="m", **{field: value})
    path.write_text(json.dumps({"base_url": "http://x", "model_name": "m", "timeout": 5,
                                "max_retries": 3}), encoding="utf-8")
    cfg = EndpointConfig.from_file(str(path))
    assert (cfg.timeout, cfg.max_retries) == (5, 3)


# --- remote backend against a stub server ------------------------------------

class _StubHandler(BaseHTTPRequestHandler):
    """Replies Yellow to every request, or SAFE to one with the slow prompt."""

    captured = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).captured.append(
            {"path": self.path, "auth": self.headers.get("Authorization"),
             "body": body})
        slow = body["messages"][0]["content"][0]["text"].startswith(SLOW_TEXT)
        content = "**VERDICT**: SAFE" if slow else '{"category": "yellow", "reason": "stub"}'
        reply = {"choices": [{"message": {"content": content}}]}
        payload = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    _StubHandler.captured = []
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    thread.join()
    server.server_close()


def test_remote_fast_roundtrip(stub_server, monkeypatch):
    monkeypatch.setenv("STUB_TOKEN", "sekrit")
    cfg = EndpointConfig(base_url=stub_server, model_name="stub-model",
                         auth_token_env_var_name="STUB_TOKEN", timeout=5,
                         image_mode="path")
    backend = RemoteBackend(cfg)
    raw, _ = backend.fast_raw(FAST_TEXT, Frame(t=1.0, image_path="f.jpg"))
    assert parse_fast_output(raw)[0] == SafetyState.YELLOW
    assert raw.startswith("{")

    call = _StubHandler.captured[0]
    assert call["path"].endswith("/chat/completions")
    assert call["auth"] == "Bearer sekrit"  # token pulled from the environment
    assert call["body"]["model"] == "stub-model"
    parts = call["body"]["messages"][0]["content"]
    assert parts[0]["type"] == "text"
    assert parts[1] == {"type": "image_url", "image_url": {"url": "f.jpg"}}


def test_remote_clean_frames_lists_timestamps(stub_server):
    cfg = EndpointConfig(base_url=stub_server, model_name="stub-model",
                         timeout=5, image_mode="path")
    backend = RemoteBackend(cfg)
    frame = Frame(t=2.4, image_path="f.jpg")
    backend.fast_raw(load_prompt("fast").render((frame,), False), frame)
    text = _StubHandler.captured[-1]["body"]["messages"][0]["content"][0]["text"]
    assert "2.4s" in text
    # without a token env var no Authorization header is sent
    assert _StubHandler.captured[-1]["auth"] is None


_LISTING = "\n\nFrame timestamps (in order): "


def _run_all_stages(stub_server, manifest):
    """Run the coordinator, then the baseline, against the stub.  Returns the
    (text, times of the frames carried) of each stage's requests."""
    cfg = EndpointConfig(base_url=stub_server, model_name="stub-model",
                         timeout=5, image_mode="path")
    backend = RemoteBackend(cfg)
    trace = run_case(manifest, backend, backend, CoordinatorConfig())
    assert not trace.aborted
    n_coordinator = len(_StubHandler.captured)
    run_baseline_case(manifest, backend)
    time_of = {f.image_path: f.t for f in manifest.frames}
    sent = []
    for call in _StubHandler.captured:
        text_part, *image_parts = call["body"]["messages"][0]["content"]
        sent.append((text_part["text"], [time_of[p["image_url"]["url"]] for p in image_parts]))
    return sent[:n_coordinator], sent[n_coordinator:]


def _baseline_texts(manifest):
    baseline = load_prompt("baseline_detect")
    return [baseline.render((), True, start=w.start, end=w.end)
            for w in build_windows(manifest.duration).windows]


def test_clean_frame_prompts_list_carried_times(stub_server):
    """Every fast, slow and baseline request on a clean-frame manifest lists
    exactly the times of the frames it carries."""
    manifest = dataclasses.replace(grid_manifest(duration=3.0), pre_overlaid=False)
    coordinator, baseline = _run_all_stages(stub_server, manifest)
    heads = []
    for text, times in coordinator + baseline:
        head, sep, listing = text.rpartition(_LISTING)
        assert sep and times
        assert listing == ", ".join(f"{t:.1f}s" for t in times) + "\n"
        heads.append(head)
    assert set(heads[:len(coordinator)]) == {FAST_TEXT, SLOW_TEXT}
    assert heads[len(coordinator):] == _baseline_texts(manifest)


def test_overlaid_frame_prompts_are_template_text(stub_server):
    """With burned-in timestamps the prompts carry no listing: fast and slow
    send the template text, the baseline its rendered window."""
    manifest = grid_manifest(duration=3.0)
    coordinator, baseline = _run_all_stages(stub_server, manifest)
    assert {text for text, _ in coordinator} == {FAST_TEXT, SLOW_TEXT}
    assert [text for text, _ in baseline] == _baseline_texts(manifest)


def test_missing_image_aborts_case(stub_server, tmp_path):
    """An unreadable frame image ends the case as an aborted trace before any
    request is sent."""
    cfg = EndpointConfig(base_url=stub_server, model_name="stub-model", timeout=5)
    backend = RemoteBackend(cfg)  # base64 mode reads the image
    missing = str(tmp_path / "missing.jpg")
    manifest = FrameManifest(case_id="gone", fps_native=10.0,
                             frames=(Frame(t=0.0, image_path=missing),
                                     Frame(t=1.0, image_path=missing)))
    trace = run_case(manifest, backend, backend, CoordinatorConfig())
    assert trace.aborted
    assert _StubHandler.captured == []
    with pytest.raises(TransportError, match="missing.jpg"):
        backend.fast_raw(FAST_TEXT, manifest.frames[0])


# --- transport failures against a stub with a fixed reply ----------------------

class _ReplyHandler(BaseHTTPRequestHandler):
    """Answers every request with ``status``, ``body`` and, when set, a
    ``location`` header after ``delay`` seconds, counting the requests in
    ``hits`` and keeping their Authorization headers in ``auth`` and their
    bodies in ``bodies``.  Each test serves a subclass."""

    status, body, delay, hits, location, auth, bodies = 200, b"", 0.0, 0, None, (), ()

    def do_POST(self):
        type(self).hits += 1
        type(self).auth += (self.headers.get("Authorization"),)
        type(self).bodies += (self.rfile.read(int(self.headers.get("Content-Length", 0))),)
        time.sleep(self.delay)
        try:
            self.send_response(self.status)
            if self.location:
                self.send_header("Location", self.location)
            self.send_header("Content-Length", str(len(self.body)))
            self.end_headers()
            self.wfile.write(self.body)
        except OSError:
            pass  # the client timed out and closed the connection

    do_GET = do_POST  # a followed 301, 302 or 303 arrives as a GET

    def log_message(self, *args):
        pass


@pytest.fixture()
def reply_server():
    """``serve(status, body, delay)`` starts a stub and returns its URL and
    handler class; every stub is shut down after the test."""
    running = []

    def serve(status=200, body=b"", delay=0.0, location=None):
        handler = type("Handler", (_ReplyHandler,), {"status": status, "body": body,
                                                     "delay": delay, "hits": 0,
                                                     "location": location, "auth": (),
                                                     "bodies": ()})
        server = HTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        running.append((server, thread))
        return f"http://127.0.0.1:{server.server_port}", handler

    yield serve
    for server, thread in running:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
        assert not thread.is_alive()


def _remote(url, **kw):
    return RemoteBackend(EndpointConfig(base_url=url, model_name="m",
                                        **{"timeout": 5, "max_retries": 0, "image_mode": "path",
                                           **kw}))


def _reply_body(content):
    return json.dumps({"choices": [{"message": {"content": content}}]}).encode()


_FRAME = Frame(t=0.0, image_path="f.jpg")


def test_remote_sends_each_frame_base64_encoded(reply_server, tmp_path):
    """In base64 mode the request body carries each frame's bytes, labelled
    with the type its extension names."""
    url, handler = reply_server(body=_reply_body("Verdict: 0"))
    images = {"a.jpg": ("image/jpeg", b"\xff\xd8jpeg"), "b.png": ("image/png", b"\x89PNG\r\n")}
    for name, (_, data) in images.items():
        (tmp_path / name).write_bytes(data)
    window = [Frame(t=float(i), image_path=str(tmp_path / name)) for i, name in enumerate(images)]
    _remote(url, image_mode="base64").slow_raw(SLOW_TEXT, window)
    [body] = handler.bodies
    [message] = json.loads(body)["messages"]
    assert message["content"] == [{"type": "text", "text": SLOW_TEXT}] + [
        {"type": "image_url", "image_url": {"url": f"data:{mime};base64,"
                                                   f"{base64.b64encode(data).decode()}"}}
        for mime, data in images.values()]


@pytest.mark.parametrize("name,mime", [("notes.txt", "text/plain"), ("frame", "None")])
def test_remote_file_of_no_image_type_is_transport_error(reply_server, tmp_path, name, mime):
    """A frame file whose extension names no image type is refused, naming
    it, before any request is sent."""
    url, handler = reply_server(body=_reply_body("Verdict: 0"))
    path = tmp_path / name
    path.write_bytes(b"\xff\xd8jpeg")
    with pytest.raises(TransportError) as info:
        _remote(url, image_mode="base64").fast_raw(FAST_TEXT, Frame(t=0.0, image_path=str(path)))
    assert str(info.value) == (f"cannot send {str(path)!r} as an image: its type is {mime}, "
                               "not image/*")
    assert handler.hits == 0


def test_remote_http_error_is_retried_then_transport_error(reply_server):
    url, handler = reply_server(status=500, body=b"server error")
    with pytest.raises(TransportError, match="HTTP 500"):
        _remote(url, max_retries=2).fast_raw(FAST_TEXT, _FRAME)
    assert handler.hits == 3  # the first attempt and both retries


@pytest.mark.parametrize("body", [
    b"<html>not json</html>", b'{"id": "x"}', b'{"choices": []}', b"[]",
    _reply_body(None), b'{"choices": [{"message": {"content": 12}}]}',
    b'{"choices": ' + b"[" * 100_000,
], ids=["not_json", "no_choices", "empty_choices", "not_object", "null_content", "int_content",
        "deeply_nested"])
def test_remote_malformed_body_is_transport_error(reply_server, body):
    url, handler = reply_server(body=body)
    with pytest.raises(TransportError):
        _remote(url).fast_raw(FAST_TEXT, _FRAME)
    assert handler.hits == 1


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_remote_redirect_is_refused_and_keeps_the_token(reply_server, monkeypatch, status):
    """A redirect is a TransportError and is never followed, so the bearer
    token reaches no host but the configured one."""
    monkeypatch.setenv("STUB_TOKEN", "secret")
    elsewhere, other = reply_server(body=_reply_body("stolen"))
    url, handler = reply_server(status=status, location=elsewhere + "/chat/completions")
    with pytest.raises(TransportError, match=f"HTTP {status}"):
        _remote(url, auth_token_env_var_name="STUB_TOKEN").fast_raw(FAST_TEXT, _FRAME)
    assert handler.auth == ("Bearer secret",)
    assert other.hits == 0


def test_remote_slow_reply_is_timeout(reply_server):
    url, _ = reply_server(body=_reply_body("late"), delay=0.5)
    with pytest.raises(BackendTimeoutError):
        _remote(url, timeout=0.2).fast_raw(FAST_TEXT, _FRAME)


def test_remote_body_cap(reply_server):
    """A body of ``MAX_BODY_BYTES`` is read; one byte more is refused."""
    at_cap = _reply_body("ok").ljust(MAX_BODY_BYTES)
    url, _ = reply_server(body=at_cap)
    assert _remote(url).fast_raw(FAST_TEXT, _FRAME)[0] == "ok"
    url, _ = reply_server(body=at_cap + b" ")
    with pytest.raises(TransportError, match=f"longer than {MAX_BODY_BYTES} bytes"):
        _remote(url).fast_raw(FAST_TEXT, _FRAME)


def test_remote_body_cap_holds_the_longest_reply_fully_escaped(reply_server):
    """A reply of ``MAX_REPLY_CHARS`` characters that JSON spells at 12 bytes
    each still fits under the cap."""
    reply = "\U0001F600" * MAX_REPLY_CHARS
    body = _reply_body(reply)
    assert len(body) > 12 * MAX_REPLY_CHARS
    url, _ = reply_server(body=body)
    assert _remote(url).fast_raw(FAST_TEXT, _FRAME)[0] == reply


@pytest.mark.parametrize("raised,expected", [
    (TimeoutError("timed out"), BackendTimeoutError),
    (urllib.error.URLError(TimeoutError("timed out")), BackendTimeoutError),
    (urllib.error.URLError(ConnectionRefusedError("refused")), TransportError),
    (ConnectionResetError("reset"), TransportError),
    (http.client.BadStatusLine("garbage"), TransportError),
    (http.client.IncompleteRead(b"par"), TransportError),
], ids=["timeout", "wrapped_timeout", "refused", "reset", "bad_status", "incomplete"])
def test_remote_transport_exception_mapping(monkeypatch, raised, expected):
    """Each failure the HTTP stack can raise becomes one typed backend error."""
    def open_(opener, request, timeout):
        raise raised

    monkeypatch.setattr(urllib.request.OpenerDirector, "open", open_)
    with pytest.raises(expected) as exc:
        _remote("http://127.0.0.1:9").fast_raw(FAST_TEXT, _FRAME)
    assert type(exc.value) is expected


@pytest.mark.parametrize("status,body", [
    (401, b"unauthorized"), (400, b""), (404, b""), (301, b""),
    (200, b"<html>not json</html>"), (200, _reply_body("ok").ljust(MAX_BODY_BYTES + 1)),
], ids=["401", "400", "404", "301", "malformed_body", "oversized_body"])
def test_remote_unfixable_failure_is_not_retried(reply_server, status, body):
    """A failure that a new POST would only repeat is raised after one POST."""
    url, handler = reply_server(status=status, body=body)
    with pytest.raises(TransportError):
        _remote(url, max_retries=2).fast_raw(FAST_TEXT, _FRAME)
    assert handler.hits == 1


def _http_error(code):
    return urllib.error.HTTPError("http://127.0.0.1:9", code, "reason", {}, io.BytesIO())


@pytest.mark.parametrize("raised,attempts", [
    (TimeoutError("timed out"), 3),
    (urllib.error.URLError(TimeoutError("timed out")), 3),
    (urllib.error.URLError(ConnectionRefusedError("refused")), 3),
    (ConnectionResetError("reset"), 3),
    (http.client.BadStatusLine("garbage"), 3),
    (http.client.IncompleteRead(b"par"), 3),
    (_http_error(500), 3), (_http_error(503), 3),
    (_http_error(429), 1), (_http_error(403), 1), (_http_error(308), 1),
    (ValueError("bad header"), 1), (OverflowError("timeout too long"), 1),
], ids=["timeout", "wrapped_timeout", "refused", "reset", "bad_status", "incomplete",
        "500", "503", "429", "403", "308", "bad_header", "overflow"])
def test_remote_retries_only_transient_failures(monkeypatch, raised, attempts):
    """Timeouts, connection failures and 5xx statuses are retried
    ``max_retries`` times; every other failure ends the query at once."""
    calls = []

    def open_(opener, request, timeout):
        calls.append(request)
        raise raised

    monkeypatch.setattr(urllib.request.OpenerDirector, "open", open_)
    with pytest.raises((TransportError, BackendTimeoutError)):
        _remote("http://127.0.0.1:9", max_retries=2).fast_raw(FAST_TEXT, _FRAME)
    assert len(calls) == attempts


def test_remote_latency_covers_every_attempt(monkeypatch):
    """A query that succeeds on its second POST reports the time from the
    first POST to the reply, so the failed attempt counts."""
    clock = iter([10.0, 10.75])
    monkeypatch.setattr(backends, "time", types.SimpleNamespace(monotonic=lambda: next(clock)))
    replies = iter([_http_error(503), io.BytesIO(_reply_body("ok"))])

    def open_(opener, request, timeout):
        reply = next(replies)
        if isinstance(reply, Exception):
            raise reply
        return reply

    monkeypatch.setattr(urllib.request.OpenerDirector, "open", open_)
    raw, latency = _remote("http://127.0.0.1:9", max_retries=1).fast_raw(FAST_TEXT, _FRAME)
    assert (raw, latency) == ("ok", 0.75)
    assert next(replies, None) is None and next(clock, None) is None
