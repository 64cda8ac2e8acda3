"""Canned corpora and fuzzing for the strict output parsers."""

import json
import random
import re
import string
import time

import pytest
from hypothesis import given, settings, strategies as st

from streamguard.model import SafetyState
from streamguard.parsing import (
    MAX_REPLY_CHARS,
    FormatError,
    _PART_RE,
    _VERDICT_RE,
    _clean_token,
    _first_json_object,
    _first_token,
    _part_text,
    parse_baseline_verdict,
    parse_fast_output,
    parse_severity_verdict,
    parse_slow_output,
)


# --- traffic-light grammar ---------------------------------------------------

FAST_OK = [
    # the exact shape the prompt asks for
    ('{\n"category": "green",\n"reason": "Robot stationary, no obstacles."\n}',
     SafetyState.GREEN),
    ('{\n"category": "yellow",\n"reason": "Robot holding a cup near the sink."\n}',
     SafetyState.YELLOW),
    ('{\n"category": "red",\n"reason": "Contact happening now."\n}',
     SafetyState.RED),
    # compact and reordered keys
    ('{"category":"green","reason":"ok"}', SafetyState.GREEN),
    ('{"reason":"near stove","category":"yellow"}', SafetyState.YELLOW),
    # casing and whitespace in the category token
    ('{"category": "RED", "reason": "fire"}', SafetyState.RED),
    ('{"category": " Green ", "reason": ""}', SafetyState.GREEN),
    ('{"category": "Yellow"}', SafetyState.YELLOW),
    # preamble / trailing prose around the object
    ('Sure! Here is my assessment:\n{"category": "red", "reason": "smoke"}\nStay safe.',
     SafetyState.RED),
    ('```json\n{"category": "yellow", "reason": "approaching chair"}\n```',
     SafetyState.YELLOW),
    # first object wins
    ('{"category": "green", "reason": "a"} {"category": "red", "reason": "b"}',
     SafetyState.GREEN),
    # nested braces and escapes inside strings are not confused with structure
    ('{"category": "yellow", "reason": "holding {sealed} box"}', SafetyState.YELLOW),
    ('{"category": "red", "reason": "say \\"stop\\" now"}', SafetyState.RED),
    # extra fields are ignored
    ('{"category": "green", "reason": "clear", "confidence": 0.9}', SafetyState.GREEN),
    # a leading non-dict brace group is skipped in favour of the real object
    ('{"oops"} then {"category": "red", "reason": "x"}', SafetyState.RED),
    # an object wrapped in an array is still found
    ('[{"category": "green", "reason": "clear"}]', SafetyState.GREEN),
]

FAST_BAD = [
    "",
    "the scene looks fine",
    "category: green",                         # not JSON
    '{"reason": "no category"}',
    '{"category": 3}',
    '{"category": "blue", "reason": "?"}',     # outside the closed set
    '{"category": "greenish"}',
    '{"category": "green"',                    # unbalanced
    "{}",
]


@pytest.mark.parametrize("raw,state", FAST_OK, ids=range(len(FAST_OK)))
def test_fast_accepts(raw, state):
    got, reason = parse_fast_output(raw)
    assert got == state
    assert isinstance(reason, str)


@pytest.mark.parametrize("raw", FAST_BAD, ids=range(len(FAST_BAD)))
def test_fast_rejects(raw):
    with pytest.raises(FormatError):
        parse_fast_output(raw)


def test_fast_reason_passthrough():
    _, reason = parse_fast_output('{"category": "red", "reason": "fire near sofa"}')
    assert reason == "fire near sofa"


# Deeper than the decoder's recursion limit, and well formed.
DEEP_NEST = '{"a":' * 100_000 + "1" + "}" * 100_000


def test_fast_deep_nesting_is_format_error():
    with pytest.raises(FormatError) as exc:
        parse_fast_output(DEEP_NEST)
    assert exc.value.reason == "no_json_object"


def test_fast_worst_case_is_fast():
    """Unclosed braces are rejected within a second.  A Python scan from each
    ``{`` to the end of the text takes time in the square of its length."""
    start = time.perf_counter()
    with pytest.raises(FormatError):
        parse_fast_output("{" * 20_000)
    assert time.perf_counter() - start < 1.0


def _char_scan_first_object(text):
    """The brace-and-string character scanner ``_first_json_object`` replaced."""
    start = text.find("{")
    while start != -1:
        depth = 0
        in_string = False
        escaped = False
        for i in range(start, len(text)):
            ch = text[i]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
            elif ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    try:
                        obj = json.loads(text[start:i + 1])
                    except json.JSONDecodeError:
                        break
                    if isinstance(obj, dict):
                        return obj
                    break
        start = text.find("{", start + 1)
    return None


# Keys and strings that hold braces, quotes and backslashes, so the encoded
# objects carry escapes.  Loose characters and open-object prefixes, which
# make a decode fail after an object nested in it, outweigh whole objects.
_KEY = st.sampled_from(["a", "{", "}", '"', "\\", "", 'a"}'])
_OBJECT = st.dictionaries(
    _KEY, st.one_of(st.integers(0, 9), _KEY, st.dictionaries(_KEY, st.integers(0, 9), max_size=2)),
    max_size=3).map(json.dumps)
_CHAR = st.sampled_from(list('{}"\\:,[]a1 ') + ['{"a": ', '{"a": ['])
_SCAN_TEXT = st.lists(st.one_of(_CHAR, _CHAR, _CHAR, _OBJECT), max_size=30).map("".join)


@settings(max_examples=300, deadline=None)
@given(_SCAN_TEXT)
def test_first_json_object_matches_char_scanner(text):
    assert _first_json_object(text) == _char_scan_first_object(text)


@pytest.mark.parametrize("text,expected", [
    ('{"a": {"category": "red"} x', {"category": "red"}),
    ('{"a": [{"b": 1}, } {"c": 2}', {"b": 1}),
    ('{"a" {"b": "}"}', {"b": "}"}),
], ids=["after_value", "in_array", "brace_in_string"])
def test_first_json_object_inside_a_failed_one(text, expected):
    """A decode that fails past a nested object does not skip that object."""
    assert _first_json_object(text) == expected == _char_scan_first_object(text)


# --- structured-reasoning grammar --------------------------------------------

SLOW_OK = [
    # the exact shape the prompt asks for
    ("**ANALYSIS**: [Robot inserts sealed box into microwave.]\n**VERDICT**: [DANGER | SAFE]"
     .replace("[DANGER | SAFE]", "DANGER"), 1),
    ("**ANALYSIS**: [Robot is idle.]\n**VERDICT**: SAFE", 0),
    ("**ANALYSIS**: x\n**VERDICT**: [DANGER]", 1),
    ("**ANALYSIS**: x\n**VERDICT**: [SAFE]", 0),
    ("ANALYSIS: nothing alarming\nVERDICT: SAFE", 0),
    ("verdict: danger", 1),
    ("Verdict - SAFE", 0),
    ("**VERDICT:** DANGER", 1),
    ("**VERDICT**:  safe", 0),
    ("VERDICT = DANGER", 1),
    # last verdict line wins
    ("**VERDICT**: SAFE\nRe-checking the thermodynamics rule...\n**VERDICT**: DANGER", 1),
    ("VERDICT: DANGER\n(on reflection)\nVERDICT: SAFE", 0),
    # prose after the verdict on later lines does not matter
    ("**ANALYSIS**: long text\n**VERDICT**: DANGER\nPlease evacuate.", 1),
    # mixed-case marker
    ("verdict: Danger", 1),
    ("The Verdict: SAFE overall", 0),
]

SLOW_BAD = [
    "",
    "**ANALYSIS**: everything seems fine",
    "VERDICT:",
    "VERDICT: MAYBE",
    "VERDICT: UNSAFE-ish??",   # SAFE is not reachable past the letters guard
    "judgment: danger",
]


@pytest.mark.parametrize("raw,verdict", SLOW_OK, ids=range(len(SLOW_OK)))
def test_slow_accepts(raw, verdict):
    assert parse_slow_output(raw) == verdict


@pytest.mark.parametrize("raw", SLOW_BAD, ids=range(len(SLOW_BAD)))
def test_slow_rejects(raw):
    with pytest.raises(FormatError):
        parse_slow_output(raw)


def test_slow_unsafe_token():
    # UNSAFE contains SAFE only after a letter, which the grammar forbids
    with pytest.raises(FormatError):
        parse_slow_output("VERDICT: UNSAFE")


# The verdict pattern before it was reduced to one non-letter class.  Its three
# overlapping quantifiers backtrack in cubic time on a marker with no word.
_OLD_VERDICT_RE = re.compile(r"VERDICT[^A-Za-z]*?\**\s*\[?\s*(DANGER|SAFE)\s*\]?", re.IGNORECASE)

_VERDICT_LINE = st.lists(
    st.sampled_from(["VERDICT", "verdict", "DANGER", "SAFE", "safe", " ", "\t", "*", "[",
                     "]", ":", "a", "Z", "é"]),
    max_size=12).map("".join)


@settings(max_examples=500)
@given(_VERDICT_LINE)
def test_verdict_pattern_matches_old_pattern(line):
    old = _OLD_VERDICT_RE.search(line)
    new = _VERDICT_RE.search(line)
    assert (old and old.group(1)) == (new and new.group(1))


@pytest.mark.parametrize("pad", [" ", "\t"], ids=["spaces", "tabs"])
def test_slow_worst_case_is_fast(pad):
    """A marker followed by 1000 blanks and no word: the old pattern took
    about 8 s here."""
    start = time.perf_counter()
    with pytest.raises(FormatError):
        parse_slow_output("VERDICT" + pad * 1000)
    assert time.perf_counter() - start < 0.5


# --- sliding-window verdict grammar ------------------------------------------

BASE_OK = [
    # the exact three-part shape the prompt asks for
    ("Part 1: [Reasoning]\n  - Robot reaches toward the stove.\n"
     "Part 2: [Verdict]\n  3.7", (0.0, 5.0), 3.7),
    ("Part 1: [Reasoning]\n  - Nothing risky.\nPart 2: [Verdict]\n  Safe", (0.0, 2.0), "safe"),
    ("Part 1: fine\nPart 2: Safe", (1.5, 3.5), "safe"),
    ("Part 1: fine\nPart 2: safe", (1.5, 3.5), "safe"),
    ("Part 1: fine\nPart 2: SAFE", (1.5, 3.5), "safe"),
    ("Part 1: risk\nPart 2: 1.5", (1.5, 3.5), 1.5),     # window edges inclusive
    ("Part 1: risk\nPart 2: 3.5", (1.5, 3.5), 3.5),
    ("Part 1: risk\nPart 2: 2", (1.5, 3.5), 2.0),       # bare integer
    ("Part 1: risk\nPart 2: 2.25s", (1.5, 3.5), 2.25),  # trailing unit tolerated
    ("Part 2: 0.0", (0.0, 2.0), 0.0),                   # Part 1 optional for parsing
    ("Part 2: [Verdict] 1.8", (0.0, 2.0), 1.8),         # label kept from the template
    ("Part 2: **1.8**", (0.0, 2.0), 1.8),
    ("Part 1. reasoning text\nPart 2. Safe", (0.0, 2.0), "safe"),
    ("Part 1: risky\nPart 2: 1.8\nPart 3: L2", (0.0, 2.0), 1.8),  # later parts ignored
    ("part 2: 1.9", (0.0, 2.0), 1.9),                   # case-insensitive marker
]

BASE_BAD = [
    ("", (0.0, 2.0)),
    ("Part 1: only reasoning", (0.0, 2.0)),
    ("Part 2:", (0.0, 2.0)),
    ("Part 2: The answer is 1.5", (0.0, 2.0)),       # prose instead of a number
    ("Part 2: dangerous", (0.0, 2.0)),
    ("Part 2: 2.5", (0.0, 2.0)),                     # above the window
    ("Part 2: 1.0", (1.5, 3.5)),                     # below the window
    ("Part 2: -1.0", (0.0, 2.0)),
    ("Part 2: 1.5 or so", (0.0, 2.0)),
    ("no parts at all 1.5", (0.0, 2.0)),
]


@pytest.mark.parametrize("raw,window,expected", BASE_OK, ids=range(len(BASE_OK)))
def test_baseline_accepts(raw, window, expected):
    assert parse_baseline_verdict(raw, *window) == expected


@pytest.mark.parametrize("raw,window", BASE_BAD, ids=range(len(BASE_BAD)))
def test_baseline_rejects(raw, window):
    with pytest.raises(FormatError):
        parse_baseline_verdict(raw, *window)


def test_baseline_reasons():
    with pytest.raises(FormatError) as exc:
        parse_baseline_verdict("Part 2: 9.0", 0.0, 2.0)
    assert exc.value.reason == "out_of_range"
    with pytest.raises(FormatError) as exc:
        parse_baseline_verdict("Part 2: wat", 0.0, 2.0)
    assert exc.value.reason == "not_a_number"
    with pytest.raises(FormatError) as exc:
        parse_baseline_verdict("hello", 0.0, 2.0)
    assert exc.value.reason == "missing_part2"


def test_baseline_invalid_window():
    with pytest.raises(ValueError):
        parse_baseline_verdict("Part 2: Safe", 2.0, 1.0)


# --- severity grammar --------------------------------------------------------

SEV_OK = [
    ("Part 1: minor scrape\nPart 2: Dangerous\nPart 3: L1", "L1"),
    ("Part 1: x\nPart 2: Dangerous\nPart 3: L2", "L2"),
    ("Part 1: x\nPart 2: Dangerous\nPart 3: l3", "L3"),
    ("Part 1: x\nPart 2: Dangerous\nPart 3: [L4]", "L4"),
    ("Part 1: x\nPart 2: Safe\nPart 3: None", "none"),
    ("Part 1: x\nPart 2: Safe\nPart 3: 'None'", "none"),
    ("Part 3: **L2**", "L2"),
    ("part 3: none", "none"),
]

SEV_BAD = ["", "Part 3:", "Part 3: L5", "Part 3: moderate", "Part 2: Safe",
           "Part 3: L1 or L2"]


@pytest.mark.parametrize("raw,level", SEV_OK, ids=range(len(SEV_OK)))
def test_severity_accepts(raw, level):
    assert parse_severity_verdict(raw) == level


@pytest.mark.parametrize("raw", SEV_BAD, ids=range(len(SEV_BAD)))
def test_severity_rejects(raw):
    with pytest.raises(FormatError):
        parse_severity_verdict(raw)


# Every line break ``str.splitlines`` knows, other blanks, and what a token
# line holds.
_TOKEN_TEXT = st.lists(st.sampled_from(
    ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", " ", " ", "\t", "\xa0",
     "*", "[", "]", "`", "'", ":", "Verdict", "severity", "Safe", "L2", "1.5"]),
    max_size=12).map("".join)


@settings(max_examples=500)
@given(_TOKEN_TEXT)
def test_first_token_matches_line_by_line_scan(text):
    """Dropping the leading blank lines at once finds the token the plain
    line-by-line scan finds."""
    expected = next((t for t in map(_clean_token, text.splitlines()) if t), None)
    assert _first_token(text) == expected


def _part_text_of_every_marker(raw, part):
    """The part search that lists every marker in the reply."""
    matches = list(_PART_RE.finditer(raw))
    for i, m in enumerate(matches):
        if m.group(1) == str(part):
            end = matches[i + 1].start() if i + 1 < len(matches) else len(raw)
            return raw[m.end():end]
    return None


# Markers of the wanted parts and of others, near-markers, a non-ASCII digit
# and the text around them.
_PART_TEXT = st.lists(st.sampled_from(
    ["Part", "part", "PART", "Par", "P", " ", "\n", "\t", "2", "3", "9", "\u0663", ":", ".",
     "Safe", "L2", "x"]), max_size=16).map("".join)


@settings(max_examples=500)
@given(_PART_TEXT)
def test_part_text_matches_every_marker_scan(raw):
    """Searching for the wanted marker and then the next one reads the text
    the scan over every marker reads."""
    for part in (2, 3):
        assert _part_text(raw, part) == _part_text_of_every_marker(raw, part)


# --- fuzz: parsers are total -------------------------------------------------

_POOL = (string.ascii_letters + string.digits +
         '{}[]":,.*\n\t ()-_' + "Part VERDICT category Safe DANGER green red yellow")


def _random_text(rng):
    kind = rng.random()
    if kind < 0.3:
        return "".join(rng.choice(_POOL) for _ in range(rng.randrange(0, 120)))
    if kind < 0.5:
        words = ["Part", "1", "2", "3", ":", "Safe", "VERDICT", "DANGER", "{", "}",
                 '"category"', '"red"', '"yellow"', "4.2", "-1", "json", "**", "[", "]"]
        return " ".join(rng.choice(words) for _ in range(rng.randrange(0, 30)))
    if kind < 0.7:
        obj = {rng.choice(["category", "reason", "x"]): rng.choice(
            ["green", "red", "blue", 3, None, ["red"]]) for _ in range(rng.randrange(0, 3))}
        return rng.choice(["", "noise "]) + json.dumps(obj)
    return "".join(chr(rng.randrange(1, 0x2000)) for _ in range(rng.randrange(0, 60)))


def test_fuzz_parsers_never_crash():
    rng = random.Random(20260823)
    for i in range(10_000):
        raw = _random_text(rng)
        for call in (
            lambda: parse_fast_output(raw),
            lambda: parse_slow_output(raw),
            lambda: parse_baseline_verdict(raw, 0.0, 2.0),
            lambda: parse_severity_verdict(raw),
        ):
            try:
                call()
            except FormatError:
                pass  # a rejection is a valid outcome; anything else is a bug


# --- bounded replies ---------------------------------------------------------

_PARSERS = {
    "fast": parse_fast_output,
    "slow": parse_slow_output,
    "baseline": lambda raw: parse_baseline_verdict(raw, 0.0, 2.0),
    "severity": parse_severity_verdict,
}
_GOOD_REPLY = {"fast": '{"category": "red"}', "slow": "VERDICT: SAFE",
               "baseline": "Part 2: Safe", "severity": "Part 3: L2"}


@pytest.mark.parametrize("name", _PARSERS)
def test_reply_past_the_cap_is_refused(name):
    parse = _PARSERS[name]
    at_cap = _GOOD_REPLY[name].ljust(MAX_REPLY_CHARS)
    parse(at_cap)  # read as usual
    with pytest.raises(FormatError) as exc:
        parse(at_cap + " ")
    assert str(exc.value) == f"reply_too_long: {MAX_REPLY_CHARS + 1} > {MAX_REPLY_CHARS} characters"


def _fill(unit, n=MAX_REPLY_CHARS):
    return (unit * (n // len(unit) + 1))[:n]


# Replies of exactly MAX_REPLY_CHARS that make each parser do the most work:
# a JSON decode that fails at every ``{``, far into the text, or only after
# scanning to the end; a verdict marker with nothing after it; and many part
# markers or lines that give no token.
_WORST_REPLIES = {
    "fast": [_fill("{"), _fill('{"a" '), _fill('{"'),
             "x" * (MAX_REPLY_CHARS - 200) + _fill('{"a" ', 200),
             "\n" * (MAX_REPLY_CHARS - 200) + _fill('{"a" ', 200),
             _fill('{"a":[', 186) + _fill("1,", MAX_REPLY_CHARS - 186)],
    "slow": ["VERDICT" + _fill(" ", MAX_REPLY_CHARS - 7), "VERDICT" + _fill("\t", MAX_REPLY_CHARS - 7),
             _fill("VERDICT: **"), _fill("VERDICT\n")],
    "baseline": [_fill("Part 2: "), _fill("Part 9: "), "Part 2:" + _fill("*\n", MAX_REPLY_CHARS - 7),
                 "Part 2:" + _fill("\n", MAX_REPLY_CHARS - 7)],
    "severity": [_fill("Part 3: "), _fill("Part 9: "), "Part 3:" + _fill("[]\n", MAX_REPLY_CHARS - 7),
                 "Part 3:" + _fill("\r", MAX_REPLY_CHARS - 7)],
}


@pytest.mark.timing
@pytest.mark.parametrize("name", _PARSERS)
def test_worst_case_reply_at_the_cap_is_fast(name):
    """Each reply parses in under 0.25 s, taking the best of three tries so
    that a pause of the test process is not counted as parser time."""
    def seconds(raw):
        start = time.perf_counter()
        with pytest.raises(FormatError):
            _PARSERS[name](raw)
        return time.perf_counter() - start

    for raw in _WORST_REPLIES[name]:
        assert len(raw) == MAX_REPLY_CHARS
        assert min(seconds(raw) for _ in range(3)) < 0.25, raw[:20]


def test_json_search_gives_up_after_failed_decodes():
    obj = '{"category": "red"}'
    assert _first_json_object("{x " * 31 + obj) == {"category": "red"}
    assert _first_json_object("{x " * 32 + obj) is None


def test_json_search_gives_up_after_scanning_the_cap():
    """Two decodes that each fail past half the cap end the search before
    the object after them."""
    def text(n):
        return '{"a":[{"a":[' + "1," * n + ' x {"b": 1}'
    assert _first_json_object(text(10)) == {"b": 1} == _char_scan_first_object(text(10))
    long_ = text(MAX_REPLY_CHARS // 4 + 10)
    assert len(long_) < MAX_REPLY_CHARS
    assert _first_json_object(long_) is None
