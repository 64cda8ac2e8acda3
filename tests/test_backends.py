"""Scripted backend semantics, prompt templates, endpoint config, and a
round-trip against a local stub HTTP endpoint."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from streamguard.backends import (
    BackendTimeoutError,
    EndpointConfig,
    FastQuery,
    PromptTemplate,
    RemoteBackend,
    ScheduleRule,
    ScriptedBackend,
    SlowQuery,
    load_prompt,
    query_fast,
)
from streamguard.model import Frame, SafetyState, SchemaError
from streamguard.parsing import FormatError, parse_slow_output

from helpers import fast_script


# --- prompt templates --------------------------------------------------------

def test_load_bundled_prompts():
    for name in ("fast", "slow", "baseline_detect", "severity"):
        prompt = load_prompt(name)
        assert prompt.name == name and prompt.text


def test_render_substitutes_window():
    prompt = load_prompt("baseline_detect")
    text = prompt.render(start=1.5, end=3.5)
    assert "1.5s to 3.5s" in text
    assert "<Start>" not in text and "<End>" not in text


def test_render_requires_window_times():
    prompt = load_prompt("baseline_detect")
    with pytest.raises(ValueError):
        prompt.render(start=1.5)


def test_render_timestamp_listing():
    prompt = PromptTemplate(name="t", text="Judge the frames.")
    text = prompt.render(timestamps=[0.0, 0.2, 0.4])
    assert "0.0s, 0.2s, 0.4s" in text


# --- scripted backend --------------------------------------------------------

def test_scripted_fast_schedule_and_default():
    backend = fast_script([(1.0, 2.0, "red")])
    frame = Frame(t=1.5)
    reply = query_fast(backend, FastQuery(frame=frame, prompt=load_prompt("fast")))
    assert reply.state == SafetyState.RED
    assert reply.latency == pytest.approx(ScriptedBackend.DEFAULT_FAST_LATENCY)
    # outside every rule: nominal
    reply = query_fast(backend, FastQuery(frame=Frame(t=5.0), prompt=load_prompt("fast")))
    assert reply.state == SafetyState.GREEN


def test_scripted_rules_half_open():
    backend = fast_script([(1.0, 2.0, "red")])
    at = lambda t: query_fast(backend, FastQuery(frame=Frame(t=t),
                                                 prompt=load_prompt("fast"))).state
    assert at(1.0) == SafetyState.RED
    assert at(2.0) == SafetyState.GREEN  # end is exclusive


def test_scripted_overlap_rejected():
    with pytest.raises(SchemaError):
        ScriptedBackend(fast_schedule=[
            ScheduleRule(0.0, 2.0, {"state": "green"}),
            ScheduleRule(1.0, 3.0, {"state": "red"}),
        ])


def test_scripted_slow_keyed_on_trigger_time():
    backend = ScriptedBackend(slow_responses=[
        ScheduleRule(1.0, 2.0, {"verdict": 1, "latency": 2.2})])
    window = (Frame(t=0.6), Frame(t=0.8), Frame(t=1.0))
    raw, latency = backend.slow_raw(SlowQuery(window=window, prompt=load_prompt("slow")))
    assert parse_slow_output(raw) == 1 and latency == pytest.approx(2.2)
    # outside every rule the scripted expert stays calm
    window = (Frame(t=4.0),)
    raw, _ = backend.slow_raw(SlowQuery(window=window, prompt=load_prompt("slow")))
    assert parse_slow_output(raw) == 0


@pytest.mark.parametrize("key", ["fast_schedule", "slow_responses", "baseline_responses"])
def test_scripted_negative_latency_rejected(key):
    rule = {"t_start": 0.0, "t_end": 1.0, "latency": -0.5}
    with pytest.raises(SchemaError):
        ScriptedBackend.from_dict({key: [rule]})
    with pytest.raises(SchemaError):
        ScriptedBackend.from_dict({key: [{**rule, "latency": float("nan")}]})


def test_scripted_faults():
    backend = ScriptedBackend(malformed=[(0.0, 1.0)], timeout=[(2.0, 3.0)])
    raw, _ = backend.fast_raw(FastQuery(frame=Frame(t=0.5), prompt=load_prompt("fast")))
    with pytest.raises(FormatError):
        query_fast(backend, FastQuery(frame=Frame(t=0.5), prompt=load_prompt("fast")))
    with pytest.raises(BackendTimeoutError):
        backend.fast_raw(FastQuery(frame=Frame(t=2.5), prompt=load_prompt("fast")))


def test_scripted_dict_roundtrip(tmp_path):
    backend = ScriptedBackend(
        fast_schedule=[ScheduleRule(0.0, 1.0, {"state": "yellow", "reason": "x"})],
        slow_responses=[ScheduleRule(0.0, 1.0, {"verdict": 1, "latency": 1.5})],
        baseline_responses=[ScheduleRule(0.0, 0.1, {"raw": "Part 2: Safe"})],
        malformed=[(3.0, 4.0)], timeout=[(5.0, 6.0)])
    path = tmp_path / "script.json"
    path.write_text(json.dumps(backend.to_dict()), encoding="utf-8")
    loaded = ScriptedBackend.from_file(str(path))
    assert loaded.to_dict() == backend.to_dict()


def test_slow_query_validation():
    with pytest.raises(SchemaError):
        SlowQuery(window=(), prompt=load_prompt("slow"))
    with pytest.raises(SchemaError):
        SlowQuery(window=(Frame(t=1.0), Frame(t=0.5)), prompt=load_prompt("slow"))
    q = SlowQuery(window=(Frame(t=0.5), Frame(t=1.0)), prompt=load_prompt("slow"))
    assert q.trigger_time == 1.0


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


# --- remote backend against a stub server ------------------------------------

class _StubHandler(BaseHTTPRequestHandler):
    captured = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).captured.append(
            {"path": self.path, "auth": self.headers.get("Authorization"),
             "body": body})
        reply = {"choices": [{"message": {"content":
                 '{"category": "yellow", "reason": "stub"}'}}]}
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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    thread.join()


def test_remote_fast_roundtrip(stub_server, monkeypatch):
    monkeypatch.setenv("STUB_TOKEN", "sekrit")
    cfg = EndpointConfig(base_url=stub_server, model_name="stub-model",
                         auth_token_env_var_name="STUB_TOKEN", timeout=5,
                         image_mode="path")
    backend = RemoteBackend(cfg)
    reply = query_fast(backend, FastQuery(frame=Frame(t=1.0, image_path="f.jpg"),
                                          prompt=load_prompt("fast")))
    assert reply.state == SafetyState.YELLOW
    assert reply.raw.startswith("{")

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
    backend = RemoteBackend(cfg, frames_pre_overlaid=False)
    query_fast(backend, FastQuery(frame=Frame(t=2.4, image_path="f.jpg"),
                                  prompt=load_prompt("fast")))
    text = _StubHandler.captured[-1]["body"]["messages"][0]["content"][0]["text"]
    assert "2.4s" in text
    # without a token env var no Authorization header is sent
    assert _StubHandler.captured[-1]["auth"] is None
