"""Model backends: deterministic scripted stand-ins and a remote VLM client.

Both backend kinds expose the same raw-text surface: ``fast_raw(prompt_text,
frame)``, ``slow_raw(prompt_text, window)`` and ``baseline_raw(window_start,
window_end, frames, prompt_text)``, each returning the model's text and its
latency.  The caller renders the prompt text from the manifest with
``PromptTemplate.render`` and parses the reply.

The HTTP and TLS modules are imported only where ``RemoteBackend`` uses
them, so a process with scripted backends or none never loads them.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional, Sequence

from .model import DECODE_ERRORS, Frame, SchemaError, _number, decode_error
from .parsing import MAX_REPLY_CHARS


class BackendError(Exception):
    """Base class for backend failures."""


class TransportError(BackendError):
    """The remote endpoint could not be reached or replied abnormally."""


class BackendTimeoutError(BackendError):
    """The query did not complete within the configured budget."""


@dataclass(frozen=True)
class PromptTemplate:
    """A named prompt with optional <Start>/<End> placeholders.

    The placeholders are found once, here, not on every ``render``: the fast
    and slow templates have none, and they are rendered on every sample.
    """

    name: str
    text: str

    def __post_init__(self):
        # Not fields: kept out of repr, == and hash.
        object.__setattr__(self, "_has_start", "<Start>" in self.text)
        object.__setattr__(self, "_has_end", "<End>" in self.text)

    def render(self, frames: Sequence[Frame], pre_overlaid: bool,
               start: Optional[float] = None, end: Optional[float] = None) -> str:
        """The prompt for ``frames``; clean frames (not ``pre_overlaid``) carry
        no burned-in timestamps, so their times are listed after the text."""
        out = self.text
        if self._has_start:
            if start is None:
                raise ValueError(f"prompt {self.name} needs a start time")
            out = out.replace("<Start>", f"{start:.1f}")
        if self._has_end:
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
    ``importlib.resources`` is imported here, not at module level, so a
    command that loads no prompt never loads it.
    """
    from importlib import resources

    text = resources.files("streamguard.prompts").joinpath(f"{name}.txt").read_text(encoding="utf-8")
    return PromptTemplate(name=name, text=text)


@dataclass(frozen=True)
class ScheduleRule:
    """One scripted reply, valid on the half-open interval [t_start, t_end)."""

    t_start: float
    t_end: float
    payload: dict


def _fast_text(payload: dict) -> str:
    try:
        return json.dumps({"category": payload.get("state", "green"),
                           "reason": payload.get("reason", "")})
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"cannot encode the reply: {exc}") from None


def _slow_text(payload: dict) -> str:
    verdict = payload.get("verdict", 0)
    try:
        danger = int(verdict)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"verdict must be an integer, got {verdict!r}") from None
    return f"**ANALYSIS**: scripted response\n**VERDICT**: {'DANGER' if danger else 'SAFE'}"


def _replies(rules: Sequence[ScheduleRule], label: str, reply: Callable[[dict], str],
             default_latency: float) -> tuple[tuple[float, float, str, float], ...]:
    """Each rule's ``(t_start, t_end, raw_text, latency)``, checked and ordered by ``t_start``."""
    table = []
    for r in rules:
        try:
            if not -math.inf < r.t_start < r.t_end < math.inf:  # also rejects NaN
                raise SchemaError("interval must be finite and non-empty")
            latency = _number("latency", r.payload.get("latency", default_latency))
            if not latency >= 0:  # also rejects NaN
                raise SchemaError(f"latency must be non-negative, got {latency}")
            table.append((r.t_start, r.t_end, reply(r.payload), latency))
        except SchemaError as exc:
            raise SchemaError(f"{label} rule [{r.t_start}, {r.t_end}): {exc}") from None
    table.sort(key=lambda row: row[0])
    for (a_start, a_end, *_), (b_start, b_end, *_) in zip(table, table[1:]):
        if b_start < a_end:
            raise SchemaError(
                f"{label} rules overlap: [{a_start}, {a_end}) and [{b_start}, {b_end})")
    return tuple(table)


def _intervals(intervals, label: str) -> tuple[tuple[float, float], ...]:
    """The fault list ``label`` as finite, non-empty ``(start, end)`` pairs of floats."""
    pairs = []
    for iv in intervals:
        try:
            start, end = iv
            start, end = _number(label, start), _number(label, end)
        except (TypeError, ValueError, OverflowError, SchemaError):
            raise SchemaError(f"{label} interval {iv!r} must be a pair of numbers") from None
        if not -math.inf < start < end < math.inf:  # also rejects NaN
            raise SchemaError(f"{label} interval {iv!r} must be finite and non-empty")
        pairs.append((start, end))
    return tuple(pairs)


def _in_fault(intervals, t: float) -> bool:
    return any(a <= t < b for a, b in intervals)


def _reply_at(table, t: float, default: tuple[str, float]) -> tuple[str, float]:
    """The ``(raw_text, latency)`` of the rule in ``table`` that holds ``t``, else ``default``."""
    for t_start, t_end, raw, latency in table:
        if t_start <= t < t_end:
            return raw, latency
    return default


class ScriptedBackend:
    """Deterministic backend mapping query times to canned raw outputs.

    The script is a plain dict (see ``from_file``) with ``fast_schedule``,
    ``slow_responses`` and optional ``baseline_responses`` rule lists, plus
    optional ``malformed`` / ``timeout`` fault intervals.  Inside a
    ``malformed`` interval the FastBrain reply does not parse; inside a
    ``timeout`` interval a fast or a slow query raises
    ``BackendTimeoutError``.  Baseline queries have no faults.

    Each rule's reply text and latency are built once, at construction, so
    a query only finds the rule that holds its time; a rule or a fault
    interval that cannot be built, or that is not finite and non-empty, is
    a ``SchemaError`` then.
    """

    DEFAULT_FAST_LATENCY = 0.05

    # The FastBrain reply outside every rule: the world is nominal.
    _NOMINAL_FAST = (json.dumps({"category": "green", "reason": ""}), DEFAULT_FAST_LATENCY)

    def __init__(self, fast_schedule=(), slow_responses=(), baseline_responses=(),
                 malformed=(), timeout=()):
        self.fast_schedule = tuple(fast_schedule)
        self.slow_responses = tuple(slow_responses)
        self.baseline_responses = tuple(baseline_responses)
        self.malformed = _intervals(malformed, "malformed")
        self.timeout = _intervals(timeout, "timeout")
        self._fast = _replies(self.fast_schedule, "fast_schedule", _fast_text,
                              self.DEFAULT_FAST_LATENCY)
        self._slow = _replies(self.slow_responses, "slow_responses", _slow_text, 1.0)
        self._baseline = _replies(self.baseline_responses, "baseline_responses",
                                  lambda p: str(p.get("raw", "Part 2: Safe")), 0.5)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_dict(cls, d: dict) -> "ScriptedBackend":
        def rules(key):
            return tuple(
                ScheduleRule(_number("t_start", r["t_start"]), _number("t_end", r["t_end"]),
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

    def fast_raw(self, prompt_text: str, frame: Frame) -> tuple[str, float]:
        t = frame.t
        if self.timeout and _in_fault(self.timeout, t):
            raise BackendTimeoutError(f"scripted timeout at t={t}")
        if self.malformed and _in_fault(self.malformed, t):
            return "the scene looks fine", self.DEFAULT_FAST_LATENCY
        return _reply_at(self._fast, t, self._NOMINAL_FAST)

    def slow_raw(self, prompt_text: str, window: Sequence[Frame]) -> tuple[str, float]:
        t = window[-1].t
        if _in_fault(self.timeout, t):
            raise BackendTimeoutError(f"scripted timeout at t={t}")
        return _reply_at(self._slow, t, ("**ANALYSIS**: scripted response\n**VERDICT**: SAFE", 1.0))

    def baseline_raw(self, window_start: float, window_end: float,
                     frames: Sequence[Frame], prompt_text: str) -> tuple[str, float]:
        return _reply_at(self._baseline, window_start,
                         ("Part 1: nothing notable.\nPart 2: Safe", 0.5))


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
        if not (isinstance(self.timeout, (int, float)) and not isinstance(self.timeout, bool)
                and 0 < self.timeout < math.inf):  # also rejects NaN
            raise SchemaError("endpoint timeout must be finite and positive, "
                              f"got {self.timeout!r}")
        if not isinstance(self.max_retries, int) or isinstance(self.max_retries, bool) \
                or self.max_retries < 0:
            raise SchemaError("endpoint max_retries must be a non-negative integer, "
                              f"got {self.max_retries!r}")
        if self.image_mode not in ("base64", "path"):
            raise SchemaError(f"unknown image_mode {self.image_mode!r}")
        if not isinstance(self.base_url, str) \
                or not self.base_url.lower().startswith(("http://", "https://")):
            raise SchemaError(f"endpoint base_url must be an http or https URL, "
                              f"got {self.base_url!r}")

    @classmethod
    def from_file(cls, path: str) -> "EndpointConfig":
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        try:
            return cls(
                base_url=d["base_url"],
                model_name=d["model_name"],
                auth_token_env_var_name=d.get("auth_token_env_var_name", ""),
                timeout=d.get("timeout", 60.0),
                max_retries=d.get("max_retries", 2),
                image_mode=d.get("image_mode", "base64"),
            )
        except DECODE_ERRORS as exc:
            raise decode_error(f"endpoint config {path}", d, exc) from exc


# The most bytes of a reply body ``RemoteBackend`` reads.  JSON spells one
# character in at most 12 bytes (a surrogate pair of \uXXXX escapes), so a
# reply of ``MAX_REPLY_CHARS`` characters, the longest any parser reads, fits
# escaped in full, with 64 KiB to spare for the envelope around it.
MAX_BODY_BYTES = 12 * MAX_REPLY_CHARS + 64 * 1024


@cache
def _refuse_redirect() -> type:
    """A redirect handler that leaves every 3xx reply unfollowed, so it is
    raised as an ``HTTPError``: following one would resend the bearer token
    to whatever host and scheme the ``Location`` names."""
    import urllib.request

    class RefuseRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, *args):
            return None

    return RefuseRedirect


def _retryable(exc: BackendError) -> bool:
    """Whether ``RemoteBackend._post`` failed in a way a new POST could fix:
    a timeout, a connection failure or an HTTP 5xx status.

    It reads the failure ``_post`` raised ``exc`` from.  A 3xx or 4xx status,
    a malformed URL or header, and a reply body that is too long, not JSON or
    of the wrong shape would fail the same way again.
    """
    import http.client
    import urllib.error

    cause = exc.__cause__
    if isinstance(cause, urllib.error.HTTPError):
        return cause.code >= 500
    return isinstance(exc, BackendTimeoutError) \
        or isinstance(cause, (OSError, http.client.HTTPException))


class RemoteBackend:
    """Client for a remote VLM behind a chat-completions endpoint.

    Auth tokens come only from the environment variable named in the
    config, never from files.

    Each query POSTs once.  After a timeout, a connection failure or an
    HTTP 5xx status it retries up to ``config.max_retries`` more times and
    raises the last failure; any other failure is raised after that one
    POST (``_retryable``).  The latency a reply reports runs from the first
    POST, so it includes the attempts that failed.  A socket timeout, raised
    directly or wrapped in a ``URLError``, is a ``BackendTimeoutError``.
    Every other failure is a ``TransportError``: an HTTP error status, a
    redirect (never followed), a connection or other ``OSError``, a body
    longer than ``MAX_BODY_BYTES`` (of which at most one byte more is read),
    a body that is not JSON or nests too deeply to decode, or one without a
    string at ``choices[0].message.content``.
    """

    def __init__(self, config: EndpointConfig):
        import urllib.request

        self.config = config
        self._opener = urllib.request.build_opener(_refuse_redirect())

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
        import base64

        try:
            with open(frame.image_path, "rb") as fh:
                payload = base64.b64encode(fh.read()).decode("ascii")
        except OSError as exc:
            raise TransportError(f"cannot read image {frame.image_path!r}: {exc}") from exc
        return {"type": "image_url",
                "image_url": {"url": f"data:image/jpeg;base64,{payload}"}}

    def _chat(self, prompt_text: str, frames: Sequence[Frame]) -> tuple[str, float]:
        content = [{"type": "text", "text": prompt_text}]
        content.extend(self._image_part(f) for f in frames)
        body = {
            "model": self.config.model_name,
            "messages": [{"role": "user", "content": content}],
        }
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        data = json.dumps(body).encode("utf-8")
        last_exc: Exception = TransportError("no attempt made")
        start = time.monotonic()  # the latency covers every attempt
        for _ in range(self.config.max_retries + 1):
            try:
                return self._post(url, data), time.monotonic() - start
            except BackendError as exc:
                if not _retryable(exc):
                    raise
                last_exc = exc
        raise last_exc

    def _post(self, url: str, data: bytes) -> str:
        """One POST of ``data``; the reply text, or the typed failure."""
        import http.client
        import urllib.error
        import urllib.request

        try:
            request = urllib.request.Request(url, data=data, headers=self._headers(),
                                             method="POST")
            with self._opener.open(request, timeout=self.config.timeout) as resp:
                payload = resp.read(MAX_BODY_BYTES + 1)
        except TimeoutError as exc:
            raise BackendTimeoutError(f"{url}: {exc}") from exc
        except urllib.error.HTTPError as exc:
            exc.close()
            raise TransportError(f"{url}: HTTP {exc.code} {exc.reason}") from exc
        except urllib.error.URLError as exc:
            if isinstance(exc.reason, TimeoutError):
                raise BackendTimeoutError(f"{url}: {exc.reason}") from exc
            raise TransportError(f"{url}: {exc.reason}") from exc
        except (OSError, http.client.HTTPException, ValueError, OverflowError) as exc:
            # ValueError: a malformed URL or header; OverflowError: a timeout
            # too long for the socket layer.
            raise TransportError(f"{url}: {exc!r}") from exc
        if len(payload) > MAX_BODY_BYTES:
            raise TransportError(f"{url}: reply body longer than {MAX_BODY_BYTES} bytes")
        try:
            text = json.loads(payload)["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError, RecursionError) as exc:
            raise TransportError(f"{url}: malformed reply body: {exc!r}") from exc
        if not isinstance(text, str):
            raise TransportError(f"{url}: reply content is {type(text).__name__}, not a string")
        return text

    def fast_raw(self, prompt_text: str, frame: Frame) -> tuple[str, float]:
        return self._chat(prompt_text, (frame,))

    def slow_raw(self, prompt_text: str, window: Sequence[Frame]) -> tuple[str, float]:
        return self._chat(prompt_text, window)

    def baseline_raw(self, window_start: float, window_end: float,
                     frames: Sequence[Frame], prompt_text: str) -> tuple[str, float]:
        return self._chat(prompt_text, frames)
