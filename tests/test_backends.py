"""Scripted backend semantics, prompt templates, endpoint config, and a
round-trip against a local stub HTTP endpoint."""

import dataclasses
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from streamguard.backends import (
    BackendTimeoutError,
    EndpointConfig,
    PromptTemplate,
    RemoteBackend,
    ScheduleRule,
    ScriptedBackend,
    TransportError,
    load_prompt,
)
from streamguard.baseline import build_windows, run_baseline_case
from streamguard.coordinator import CoordinatorConfig, run_case
from streamguard.model import Frame, FrameManifest, SafetyState, SchemaError
from streamguard.parsing import FormatError, parse_fast_output, parse_slow_output

from helpers import fast_script, grid_manifest

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
        ScriptedBackend(fast_schedule=[
            ScheduleRule(0.0, 2.0, {"state": "green"}),
            ScheduleRule(1.0, 3.0, {"state": "red"}),
        ])


def test_scripted_slow_keyed_on_trigger_time():
    backend = ScriptedBackend(slow_responses=[
        ScheduleRule(1.0, 2.0, {"verdict": 1, "latency": 2.2})])
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
        ScriptedBackend.from_dict({key: [rule]})
    with pytest.raises(SchemaError):
        ScriptedBackend.from_dict({key: [{**rule, "latency": float("nan")}]})


@pytest.mark.parametrize("verdict", ["x", None, [1], "1.5"])
def test_scripted_bad_verdict_rejected(verdict):
    rule = {"t_start": 0.0, "t_end": 1.0, "verdict": verdict}
    with pytest.raises(SchemaError, match=r"slow_responses rule \[0\.0, 1\.0\): verdict"):
        ScriptedBackend.from_dict({"slow_responses": [rule]})
    for ok in (1, "1", True, 0.0):  # what slow_raw's int() accepted stays accepted
        ScriptedBackend.from_dict({"slow_responses": [{**rule, "verdict": ok}]})


def test_scripted_faults():
    backend = ScriptedBackend(malformed=[(0.0, 1.0)], timeout=[(2.0, 3.0)])
    raw, _ = backend.fast_raw(FAST_TEXT, Frame(t=0.5))
    with pytest.raises(FormatError):
        parse_fast_output(raw)
    with pytest.raises(BackendTimeoutError):
        backend.fast_raw(FAST_TEXT, Frame(t=2.5))


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
