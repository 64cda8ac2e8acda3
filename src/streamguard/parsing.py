"""Strict parsers for the three model output grammars.

Every parser is total: it either returns a value or raises FormatError,
regardless of input bytes.  Each one refuses a reply longer than
``MAX_REPLY_CHARS`` with ``FormatError("reply_too_long")`` before reading it,
so the time any reply can take is bounded.
"""

from __future__ import annotations

import json
import re
from typing import Optional, Tuple

from .model import SafetyState


class FormatError(Exception):
    """Model output does not follow the required grammar."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


# The longest reply any parser reads, in characters.  The replies in the
# demos, the golden timelines and every perfbench workload are at most 58
# characters long; at this length each parser's worst case takes well under a
# quarter of a second.
MAX_REPLY_CHARS = 640 * 1024

# The most ``{`` whose decode may fail before the JSON search gives up.
_MAX_FAILED_DECODES = 32

_DECODER = json.JSONDecoder()


def _check_length(raw: str) -> None:
    if len(raw) > MAX_REPLY_CHARS:
        raise FormatError("reply_too_long", f"{len(raw)} > {MAX_REPLY_CHARS} characters")


def _first_json_object(text: str) -> Optional[dict]:
    """Return the first balanced JSON object embedded in text, if any.

    Tries each ``{`` in turn and decodes one JSON value there with the C
    scanner; the first that decodes is the result (a value that starts with
    ``{`` is always a dict).  A ``{`` whose decode fails is passed over for
    the next one.  This finds the object a brace-and-string scan would.

    A failed decode costs time in the length of the text: it scans up to
    the error, and the error then counts the lines before it.  So the search
    gives up with no object after ``_MAX_FAILED_DECODES`` (32) failed
    decodes, or once the failed decodes have scanned more than
    ``MAX_REPLY_CHARS`` characters between them.  A search therefore scans
    at most twice that many characters and locates at most 32 errors.
    Nesting too deep to decode ends the search at once: each ``{`` inside
    the deep run would decode as deep.
    """
    start = text.find("{")
    scanned = 0
    for _ in range(_MAX_FAILED_DECODES):
        if start == -1 or scanned > MAX_REPLY_CHARS:
            return None
        try:
            return _DECODER.raw_decode(text, start)[0]
        except json.JSONDecodeError as exc:
            scanned += exc.pos - start
            start = text.find("{", start + 1)
        except RecursionError:
            return None
    return None


_STATES = {s.value: s for s in SafetyState}


def parse_fast_output(raw: str) -> Tuple[SafetyState, str]:
    """Parse the traffic-light JSON reply: {"category": ..., "reason": ...}.

    Takes the first JSON object in the text; model preamble and trailing
    prose are ignored.  The category is matched case-insensitively.
    """
    _check_length(raw)
    obj = _first_json_object(raw)
    if obj is None:
        raise FormatError("no_json_object", raw[:80])
    category = obj.get("category")
    if not isinstance(category, str):
        raise FormatError("missing_category")
    state = _STATES.get(category.strip().lower())
    if state is None:
        raise FormatError("unknown_category", category)
    reason = obj.get("reason")
    return state, reason if isinstance(reason, str) else ""


# Whatever stands between the marker and the word ("**", ":", "[" and
# spaces) is non-letters, so one class covers it and the match is linear.
_VERDICT_RE = re.compile(r"VERDICT[^A-Za-z]*(DANGER|SAFE)", re.IGNORECASE)


def parse_slow_output(raw: str) -> int:
    """Parse the structured-reasoning reply; returns 1 for DANGER, 0 for SAFE.

    Scans for the last line containing a VERDICT marker so trailing prose
    after the analysis block does not confuse the result.
    """
    _check_length(raw)
    verdict_lines = [line for line in raw.splitlines() if "VERDICT" in line.upper()]
    if not verdict_lines:
        raise FormatError("missing_verdict", raw[:80])
    match = _VERDICT_RE.search(verdict_lines[-1])
    if not match:
        raise FormatError("unknown_verdict", verdict_lines[-1][:80])
    return 1 if match.group(1).upper() == "DANGER" else 0


_PART_RE = re.compile(r"Part\s*(\d)\s*[:.]", re.IGNORECASE)
# The marker of one wanted part.  A marker cannot start inside another one,
# so its first match is the first ``_PART_RE`` match naming that part.
_PART_N_RE = {n: re.compile(rf"Part\s*{n}\s*[:.]", re.IGNORECASE) for n in (2, 3)}


def _part_text(raw: str, part: int) -> Optional[str]:
    """Text between the 'Part N:' marker and the next part marker (or EOF)."""
    m = _PART_N_RE[part].search(raw)
    if m is None:
        return None
    nxt = _PART_RE.search(raw, m.end())
    return raw[m.end():nxt.start() if nxt else len(raw)]


_LABEL_RE = re.compile(r"^\[?(Verdict|Severity|Reasoning)\]?\s*:?", re.IGNORECASE)


def _clean_token(text: str) -> str:
    token = text.strip()
    token = _LABEL_RE.sub("", token)
    return token.strip().strip("*[]'\"` \n").strip()


def _first_token(text: str) -> Optional[str]:
    """First non-empty cleaned line; labels like '[Verdict]' may occupy a
    line of their own before the actual token.  A blank line gives no token,
    so a leading run of them is dropped in one step."""
    for line in text.lstrip().splitlines():
        token = _clean_token(line)
        if token:
            return token
    return None


def parse_baseline_verdict(raw: str, window_start: float, window_end: float):
    """Parse a Part-2 verdict: 'Safe' or a timestamp inside the window.

    Returns "safe" or the hazard timestamp (float).  Timestamps outside
    [window_start, window_end] are a grammar violation and raise
    FormatError(out_of_range).
    """
    if window_start > window_end:
        raise ValueError("window_start must not exceed window_end")
    _check_length(raw)
    text = _part_text(raw, 2)
    token = None if text is None else _first_token(text)
    if token is None:
        raise FormatError("missing_part2", raw[:80])
    if token.lower() == "safe":
        return "safe"
    token = token.rstrip("s")  # tolerate a trailing seconds unit
    try:
        value = float(token)
    except ValueError:
        raise FormatError("not_a_number", token[:80]) from None
    if not (window_start <= value <= window_end):
        raise FormatError("out_of_range", f"{value} not in [{window_start}, {window_end}]")
    return value


_LEVELS = {"none": "none", "l1": "L1", "l2": "L2", "l3": "L3", "l4": "L4"}


def parse_severity_verdict(raw: str) -> str:
    """Parse the Part-3 severity token: 'None' or 'L1'..'L4'."""
    _check_length(raw)
    text = _part_text(raw, 3)
    token = None if text is None else _first_token(text)
    if token is None:
        raise FormatError("missing_part3", raw[:80])
    level = _LEVELS.get(token.lower())
    if level is None:
        raise FormatError("unknown_level", token[:80])
    return level
