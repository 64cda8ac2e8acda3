"""Model backends: deterministic scripted stand-ins and a remote VLM client.

Both backend kinds expose the same raw-text surface: ``fast_raw(prompt_text,
frame)``, ``slow_raw(prompt_text, window)`` and ``baseline_raw(window_start,
window_end, frames, prompt_text)``, each returning the model's text and its
latency.  The caller renders the prompt text from the manifest with
``PromptTemplate.render`` and parses the reply.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass
from functools import cache
from importlib import resources
from typing import Optional, Sequence

import requests

from .model import DECODE_ERRORS, Frame, SchemaError, decode_error


class BackendError(Exception):
    """Base class for backend failures."""


class TransportError(BackendError):
    """The remote endpoint could not be reached or replied abnormally."""


class BackendTimeoutError(BackendError):
    """The query did not complete within the configured budget."""


@dataclass(frozen=True)
class PromptTemplate:
    """A named prompt with optional <Start>/<End> placeholders."""

    name: str
    text: str

    def render(self, frames: Sequence[Frame], pre_overlaid: bool,
               start: Optional[float] = None, end: Optional[float] = None) -> str:
        """The prompt for ``frames``; clean frames (not ``pre_overlaid``) carry
        no burned-in timestamps, so their times are listed after the text."""
        out = self.text
        if "<Start>" in out:
            if start is None:
                raise ValueError(f"prompt {self.name} needs a start time")
            out = out.replace("<Start>", f"{start:.1f}")
        if "<End>" in out:
            if end is None:
                raise ValueError(f"prompt {self.name} needs an end time")
            out = out.replace("<End>", f"{end:.1f}")
        if not pre_overlaid:
            listing = ", ".join(f"{f.t:.1f}s" for f in frames)
            out = out + f"\n\nFrame timestamps (in order): {listing}\n"
        return out


@cache
def load_prompt(name: str) -> PromptTemplate:
    """Load one of the bundled templates: fast, slow, baseline_detect, severity.

    Each file is read once; the frozen template is shared by every caller.
    """
    text = resources.files("streamguard.prompts").joinpath(f"{name}.txt").read_text(encoding="utf-8")
    return PromptTemplate(name=name, text=text)


@dataclass(frozen=True)
class ScheduleRule:
    """One scripted reply, valid on the half-open interval [t_start, t_end)."""

    t_start: float
    t_end: float
    payload: dict

    def contains(self, t: float) -> bool:
        return self.t_start <= t < self.t_end


def _check_rules(rules: Sequence[ScheduleRule], label: str) -> None:
    for r in rules:
        latency = float(r.payload.get("latency", 0.0))
        if not latency >= 0:  # also rejects NaN
            raise SchemaError(f"{label} rule [{r.t_start}, {r.t_end}): latency must be "
                              f"non-negative, got {latency}")
    ordered = sorted(rules, key=lambda r: r.t_start)
    for a, b in zip(ordered, ordered[1:]):
        if b.t_start < a.t_end:
            raise SchemaError(
                f"{label} rules overlap: [{a.t_start}, {a.t_end}) and [{b.t_start}, {b.t_end})"
            )


def _check_verdicts(rules: Sequence[ScheduleRule]) -> None:
    for r in rules:
        verdict = r.payload.get("verdict", 0)
        try:
            int(verdict)  # the conversion ``slow_raw`` applies
        except (TypeError, ValueError, OverflowError):
            raise SchemaError(f"slow_responses rule [{r.t_start}, {r.t_end}): verdict must be "
                              f"an integer, got {verdict!r}") from None


class ScriptedBackend:
    """Deterministic backend mapping query times to canned raw outputs.

    The script is a plain dict (see ``from_file``) with ``fast_schedule``,
    ``slow_responses`` and optional ``baseline_responses`` rule lists, plus
    optional ``malformed`` / ``timeout`` fault intervals applied to the
    FastBrain output.
    """

    DEFAULT_FAST_LATENCY = 0.05

    def __init__(self, fast_schedule=(), slow_responses=(), baseline_responses=(),
                 malformed=(), timeout=()):
        self.fast_schedule = tuple(fast_schedule)
        self.slow_responses = tuple(slow_responses)
        self.baseline_responses = tuple(baseline_responses)
        self.malformed = tuple(tuple(iv) for iv in malformed)
        self.timeout = tuple(tuple(iv) for iv in timeout)
        _check_rules(self.fast_schedule, "fast_schedule")
        _check_rules(self.slow_responses, "slow_responses")
        _check_verdicts(self.slow_responses)
        _check_rules(self.baseline_responses, "baseline_responses")

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_dict(cls, d: dict) -> "ScriptedBackend":
        def rules(key):
            return tuple(
                ScheduleRule(float(r["t_start"]), float(r["t_end"]),
                             {k: v for k, v in r.items() if k not in ("t_start", "t_end")})
                for r in d.get(key, [])
            )

        try:
            faults = d.get("faults", {})
            return cls(
                fast_schedule=rules("fast_schedule"),
                slow_responses=rules("slow_responses"),
                baseline_responses=rules("baseline_responses"),
                malformed=faults.get("malformed", []),
                timeout=faults.get("timeout", []),
            )
        except DECODE_ERRORS as exc:
            raise decode_error("scripted backend", d, exc) from exc

    @classmethod
    def from_file(cls, path: str) -> "ScriptedBackend":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        def dump(rules):
            return [{"t_start": r.t_start, "t_end": r.t_end, **r.payload} for r in rules]

        return {
            "fast_schedule": dump(self.fast_schedule),
            "slow_responses": dump(self.slow_responses),
            "baseline_responses": dump(self.baseline_responses),
            "faults": {"malformed": [list(iv) for iv in self.malformed],
                       "timeout": [list(iv) for iv in self.timeout]},
        }

    # -- raw queries ----------------------------------------------------------

    def _in_fault(self, intervals, t: float) -> bool:
        return any(a <= t < b for a, b in intervals)

    def fast_raw(self, prompt_text: str, frame: Frame) -> tuple[str, float]:
        t = frame.t
        if self._in_fault(self.timeout, t):
            raise BackendTimeoutError(f"scripted timeout at t={t}")
        if self._in_fault(self.malformed, t):
            return "the scene looks fine", self.DEFAULT_FAST_LATENCY
        for rule in self.fast_schedule:
            if rule.contains(t):
                raw = json.dumps({"category": rule.payload.get("state", "green"),
                                  "reason": rule.payload.get("reason", "")})
                return raw, float(rule.payload.get("latency", self.DEFAULT_FAST_LATENCY))
        # Outside every rule the world is nominal.
        return json.dumps({"category": "green", "reason": ""}), self.DEFAULT_FAST_LATENCY

    def slow_raw(self, prompt_text: str, window: Sequence[Frame]) -> tuple[str, float]:
        t = window[-1].t
        if self._in_fault(self.timeout, t):
            raise BackendTimeoutError(f"scripted timeout at t={t}")
        for rule in self.slow_responses:
            if rule.contains(t):
                verdict = "DANGER" if int(rule.payload.get("verdict", 0)) else "SAFE"
                raw = f"**ANALYSIS**: scripted response\n**VERDICT**: {verdict}"
                return raw, float(rule.payload.get("latency", 1.0))
        return "**ANALYSIS**: scripted response\n**VERDICT**: SAFE", 1.0

    def baseline_raw(self, window_start: float, window_end: float,
                     frames: Sequence[Frame], prompt_text: str) -> tuple[str, float]:
        for rule in self.baseline_responses:
            if rule.contains(window_start):
                return str(rule.payload.get("raw", "Part 2: Safe")), \
                    float(rule.payload.get("latency", 0.5))
        return "Part 1: nothing notable.\nPart 2: Safe", 0.5


@dataclass(frozen=True)
class EndpointConfig:
    """Connection settings for a chat-completions style endpoint."""

    base_url: str
    model_name: str
    auth_token_env_var_name: str = ""
    timeout: float = 60.0
    max_retries: int = 2
    image_mode: str = "base64"  # "base64" | "path"

    def __post_init__(self):
        if self.timeout <= 0:
            raise SchemaError("endpoint timeout must be positive")
        if self.image_mode not in ("base64", "path"):
            raise SchemaError(f"unknown image_mode {self.image_mode!r}")

    @classmethod
    def from_file(cls, path: str) -> "EndpointConfig":
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        try:
            return cls(
                base_url=d["base_url"],
                model_name=d["model_name"],
                auth_token_env_var_name=d.get("auth_token_env_var_name", ""),
                timeout=float(d.get("timeout", 60.0)),
                max_retries=int(d.get("max_retries", 2)),
                image_mode=d.get("image_mode", "base64"),
            )
        except DECODE_ERRORS as exc:
            raise decode_error(f"endpoint config {path}", d, exc) from exc


class RemoteBackend:
    """Client for a remote VLM behind a chat-completions endpoint.

    Auth tokens come only from the environment variable named in the
    config, never from files.
    """

    def __init__(self, config: EndpointConfig, session: Optional[requests.Session] = None):
        self.config = config
        self.session = session or requests.Session()

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.config.auth_token_env_var_name:
            token = os.environ.get(self.config.auth_token_env_var_name, "")
            if token:
                headers["Authorization"] = f"Bearer {token}"
        return headers

    def _image_part(self, frame: Frame) -> dict:
        if self.config.image_mode == "path":
            return {"type": "image_url", "image_url": {"url": frame.image_path}}
        try:
            with open(frame.image_path, "rb") as fh:
                payload = base64.b64encode(fh.read()).decode("ascii")
        except OSError as exc:
            raise TransportError(f"cannot read image {frame.image_path!r}: {exc}") from exc
        return {"type": "image_url",
                "image_url": {"url": f"data:image/jpeg;base64,{payload}"}}

    def _chat(self, prompt_text: str, frames: Sequence[Frame]) -> tuple[str, float]:
        import time

        content = [{"type": "text", "text": prompt_text}]
        content.extend(self._image_part(f) for f in frames)
        body = {
            "model": self.config.model_name,
            "messages": [{"role": "user", "content": content}],
        }
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        last_exc: Exception = TransportError("no attempt made")
        for _ in range(self.config.max_retries + 1):
            start = time.monotonic()
            try:
                resp = self.session.post(url, json=body, headers=self._headers(),
                                         timeout=self.config.timeout)
                resp.raise_for_status()
                text = resp.json()["choices"][0]["message"]["content"]
                return text, time.monotonic() - start
            except requests.Timeout as exc:
                last_exc = BackendTimeoutError(str(exc))
            except (requests.RequestException, KeyError, IndexError, ValueError) as exc:
                last_exc = TransportError(str(exc))
        raise last_exc

    def fast_raw(self, prompt_text: str, frame: Frame) -> tuple[str, float]:
        return self._chat(prompt_text, (frame,))

    def slow_raw(self, prompt_text: str, window: Sequence[Frame]) -> tuple[str, float]:
        return self._chat(prompt_text, window)

    def baseline_raw(self, window_start: float, window_end: float,
                     frames: Sequence[Frame], prompt_text: str) -> tuple[str, float]:
        return self._chat(prompt_text, frames)
