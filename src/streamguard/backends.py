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
import logging
import math
import os
import re
import time
from dataclasses import dataclass, fields
from functools import cache
from typing import Callable, Optional, Sequence

from .model import (DECODE_ERRORS, JSON_ERRORS, Frame, SchemaError, _check_keys, _json_object,
                    _number, decode_error)
from .parsing import _STATES, MAX_REPLY_CHARS

log = logging.getLogger(__name__)


class BackendError(Exception):
    """Base class for backend failures; ``reason`` names the class in the
    abort reason that ``call_backend`` gives for one."""

    reason = "backend_bug"


class TransportError(BackendError):
    """The remote endpoint could not be reached or replied abnormally."""

    reason = "transport"


class BackendTimeoutError(BackendError):
    """The query did not complete within the configured budget."""

    reason = "timeout"


def call_backend(fn, *args):
    """``fn(*args)``, a backend query's ``(raw, latency)``, or, if it raised,
    the abort reason ``"<reason>: <message>"``: a ``BackendError``'s own
    ``reason``, or ``backend_bug`` for any other exception, whose traceback
    is logged at debug level.

    Every backend call of ``run_case`` and ``run_baseline_case`` goes
    through it, so a failure ends the case as a typed abort and never
    escapes.  Only the call is covered: rendering the prompt and parsing the
    reply are the caller's, and a bug there still raises.
    """
    try:
        return fn(*args)
    except BackendError as exc:
        return f"{exc.reason}: {exc}"
    except Exception as exc:
        log.debug("backend call %r failed", fn, exc_info=True)
        return f"{BackendError.reason}: {type(exc).__name__}: {exc}"


_PLACEHOLDERS = re.compile("(<Start>|<End>)")


@dataclass(frozen=True)
class PromptTemplate:
    """A named prompt with optional <Start>/<End> placeholders.

    The text is split at the placeholders once, here, and ``render`` joins
    the parts with the formatted times, not scanning the text on every call:
    a window prompt is rendered once per window, and the fast and slow
    templates, which have none, on every sample.  A corpus benchmark pass
    takes 0.654 s with the split and 0.706 s with two ``str.replace`` scans
    per render, lower in 10 of 10 pairs (``BENCH_fastpath_ledger.json``).
    """

    name: str
    text: str

    def __post_init__(self):
        # Not fields: kept out of repr, == and hash.  The split keeps each
        # placeholder as a part of its own, at the odd indices.
        parts = tuple(_PLACEHOLDERS.split(self.text))
        object.__setattr__(self, "_parts", parts)
        object.__setattr__(self, "_has_start", "<Start>" in parts)
        object.__setattr__(self, "_has_end", "<End>" in parts)

    def render(self, frames: Sequence[Frame], pre_overlaid: bool,
               start: Optional[float] = None, end: Optional[float] = None) -> str:
        """The prompt for ``frames``; clean frames (not ``pre_overlaid``) carry
        no burned-in timestamps, so their times are listed after the text."""
        out = self.text
        if self._has_start or self._has_end:
            times = {}
            if self._has_start:
                if start is None:
                    raise ValueError(f"prompt {self.name} needs a start time")
                times["<Start>"] = f"{start:.1f}"
            if self._has_end:
                if end is None:
                    raise ValueError(f"prompt {self.name} needs an end time")
                times["<End>"] = f"{end:.1f}"
            # A text part is never a placeholder, so ``get`` keeps it as it is.
            out = "".join(map(times.get, self._parts, self._parts))
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


def _fast_text(rule: dict) -> str:
    """The FastBrain reply of one rule.  Its ``state`` must be one the reply
    parser reads, matched as it matches: ``faults.malformed`` is the way to
    script a reply that does not parse."""
    state = rule.get("state", "green")
    try:
        text = json.dumps({"category": state, "reason": rule.get("reason", "")})
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"cannot encode the reply: {exc}") from None
    if not (isinstance(state, str) and state.strip().lower() in _STATES):
        raise SchemaError(f"unknown state {state!r} (known: {', '.join(_STATES)})")
    return text


def _slow_text(rule: dict) -> str:
    verdict = rule.get("verdict", 0)
    try:
        danger = int(verdict)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"verdict must be an integer, got {verdict!r}") from None
    return f"**ANALYSIS**: scripted response\n**VERDICT**: {'DANGER' if danger else 'SAFE'}"


# The keys each list's rules may hold besides ``t_start`` and ``t_end``.
_RULE_KEYS = {"fast_schedule": ("state", "reason", "latency"),
              "slow_responses": ("verdict", "latency"),
              "baseline_responses": ("raw", "latency")}


def _replies(script: dict, label: str, reply: Callable[[dict], str],
             default_latency: float) -> tuple[tuple[float, float, str, float], ...]:
    """Each rule's ``(t_start, t_end, raw_text, latency)`` in the list ``label``
    of ``script``, checked and ordered by ``t_start``."""
    known = ("t_start", "t_end", *_RULE_KEYS[label])
    table = []
    for r in script.get(label, ()):
        # The bounds before the key check: a rule that is no object fails there.
        t_start, t_end = _number("t_start", r["t_start"]), _number("t_end", r["t_end"])
        _check_keys(r, known, f" in a {label} rule")
        try:
            if not -math.inf < t_start < t_end < math.inf:  # also rejects NaN
                raise SchemaError("interval must be finite and non-empty")
            latency = _number("latency", r.get("latency", default_latency))
            if not 0 <= latency < math.inf:  # also rejects NaN
                raise SchemaError(f"latency must be finite and non-negative, got {latency}")
            table.append((t_start, t_end, reply(r), latency))
        except SchemaError as exc:
            raise SchemaError(f"{label} rule [{t_start}, {t_end}): {exc}") from None
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

    Its one written form is the script dict, the JSON object a script file
    holds (``from_file``); the empty script, the default, gives the nominal
    backend.  Every key is optional:

    - ``fast_schedule``: rules with ``state``, green, yellow or red in any
      case (default Green), ``reason`` and ``latency`` (default
      ``DEFAULT_FAST_LATENCY``, 0.05 s);
    - ``slow_responses``, keyed on a window's last frame: rules with
      ``verdict``, any int-convertible value (default 0, SAFE), and
      ``latency`` (default 1.0 s);
    - ``baseline_responses``, keyed on a window's start: rules with ``raw``,
      the reply text (default ``Part 2: Safe``), and ``latency`` (default
      0.5 s);
    - ``faults``: ``malformed`` and ``timeout`` lists of ``[start, end]``
      intervals.  Inside a ``malformed`` interval the FastBrain reply does
      not parse; inside a ``timeout`` interval a fast or a slow query raises
      ``BackendTimeoutError``.  Baseline queries have no faults.

    Each rule also holds ``t_start`` and ``t_end`` and is valid on
    ``[t_start, t_end)``; the rules of one list must not overlap.  Outside
    every rule the FastBrain sees a nominal world, the SlowBrain finds no
    danger, and a baseline window reads ``Part 1: nothing notable.`` then
    ``Part 2: Safe``, in 0.5 s.

    Each rule's reply text and latency are built once, here, so a query
    only finds the rule that holds its time.  An unknown key, a rule or a
    fault interval that cannot be built, or one that is not finite and
    non-empty, is a ``SchemaError`` prefixed ``scripted backend``.  The
    faults are checked first, then the three lists in the order above, each
    rule whole and in list order.  The script is read, never kept.
    """

    DEFAULT_FAST_LATENCY = 0.05

    # The replies outside every rule, each an empty rule's: the FastBrain sees
    # a nominal world, and the SlowBrain finds no danger.
    _NOMINAL_FAST = (_fast_text({}), DEFAULT_FAST_LATENCY)
    _NO_DANGER_SLOW = (_slow_text({}), 1.0)

    def __init__(self, script: dict = {}):
        try:
            _check_keys(script, (*_RULE_KEYS, "faults"), "")
            faults = script.get("faults", {})
            # ``get`` before the key check: a ``faults`` that is no object fails there.
            malformed, timeout = faults.get("malformed", ()), faults.get("timeout", ())
            _check_keys(faults, ("malformed", "timeout"), " in faults")
            self.malformed = _intervals(malformed, "malformed")
            self.timeout = _intervals(timeout, "timeout")
            self._fast = _replies(script, "fast_schedule", _fast_text, self.DEFAULT_FAST_LATENCY)
            self._slow = _replies(script, "slow_responses", _slow_text, 1.0)
            self._baseline = _replies(script, "baseline_responses",
                                      lambda r: str(r.get("raw", "Part 2: Safe")), 0.5)
        except DECODE_ERRORS as exc:
            raise decode_error("scripted backend", script, exc) from exc

    @classmethod
    def from_file(cls, path: str) -> "ScriptedBackend":
        with open(path, encoding="utf-8") as fh:
            return cls(_json_object(path, "scripted backend", json.load(fh)))

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
        return _reply_at(self._slow, t, self._NO_DANGER_SLOW)

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
            _check_keys(d, [f.name for f in fields(cls)], "")
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
        import mimetypes

        mime = mimetypes.guess_type(frame.image_path)[0]
        if mime is None or not mime.startswith("image/"):
            raise TransportError(f"cannot send {frame.image_path!r} as an image: "
                                 f"its type is {mime}, not image/*")
        try:
            with open(frame.image_path, "rb") as fh:
                payload = base64.b64encode(fh.read()).decode("ascii")
        except OSError as exc:
            raise TransportError(f"cannot read image {frame.image_path!r}: {exc}") from exc
        return {"type": "image_url", "image_url": {"url": f"data:{mime};base64,{payload}"}}

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
        except (*JSON_ERRORS, LookupError, TypeError) as exc:
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
