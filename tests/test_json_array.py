"""``model.decode_json_array``: the element-at-a-time array reader that the
manifest loader uses, checked against ``json.loads``; and the memory peak of
the annotation loader, whose one ``json.loads`` scan builds each case as it
closes it, so it holds no decoded array either."""

import json
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from streamguard.annotations import load_annotations
from streamguard.model import decode_json_array

from helpers import make_ann

_WS = st.text(alphabet=" \t\n\r", max_size=3)
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)
# How one element is spelled: compact, json.dumps's default, or indented.
_SPELLINGS = st.sampled_from([{"separators": (",", ":")}, {}, {"indent": 2}])
# ", " is json.dumps's separator and the reader's fast path.
_SEPARATORS = st.just(", ") | st.builds(lambda a, b: f"{a},{b}", _WS, _WS)


@st.composite
def array_texts(draw, min_size=0):
    """A valid JSON array of drawn values, with drawn whitespace and separators."""
    values = draw(st.lists(_VALUES, min_size=min_size, max_size=6))
    parts = [json.dumps(v, **draw(_SPELLINGS)) for v in values]
    body = ""
    for i, part in enumerate(parts):
        body += (draw(_SEPARATORS) if i else draw(_WS)) + part
    return f"{draw(_WS)}[{body}{draw(_WS)}]{draw(_WS)}"


def _identity_read(text):
    """The reader's value for ``text``, with a non-array read by ``json.loads``."""
    out = decode_json_array(text, lambda v: v)
    if out is None:
        value = json.loads(text)
        assert not isinstance(value, list)
        return value
    return out


def _outcome(read, text):
    try:
        return "ok", read(text)
    except Exception as exc:
        return type(exc), str(exc)


def _mangle(text, data):
    """``text`` truncated, or with one character deleted, or one inserted."""
    i = data.draw(st.integers(0, len(text)))
    how = data.draw(st.sampled_from(["cut", "drop", "insert"]))
    if how == "cut":
        return text[:i]
    if how == "drop":
        return text[:i] + text[i + 1:]
    return text[:i] + data.draw(st.sampled_from(_INSERTS)) + text[i:]


_INSERTS = (",", "[", "]", "{", "}", '"', " ", ":", "x", "0", "\ufeff")
_LONG_INT = "1" * 5000  # past CPython's integer-string conversion limit, where it has one


@given(array_texts())
@example(" [ ] ")
@example("[1, 2 ,3 ,\n\t4]")
@example('[{"a": [1, 2]}, "s", null]')
def test_valid_arrays_read_as_json_loads_reads_them(text):
    assert _identity_read(text) == json.loads(text)


@pytest.mark.parametrize("text", [
    "[1, ]", "[1,]", "[1] x", "[1]]", "\ufeff[1]", '{"a": 1}', "5", "", "[", "[1 2]", "[,1]",
    f"[{_LONG_INT}]", f"[1, {_LONG_INT}]", "[]", " [\n] \t"])
def test_invalid_and_edge_texts_give_json_loads_outcome(text):
    assert _outcome(_identity_read, text) == _outcome(json.loads, text)


@given(array_texts(), st.data())
def test_mangled_arrays_give_json_loads_value_or_error(text, data):
    """Valid or not, the reader gives ``json.loads``'s value, or its
    exception with the same type and message."""
    text = _mangle(text, data)
    assert _outcome(_identity_read, text) == _outcome(json.loads, text)


def test_elements_reach_decode_once_each_in_order():
    seen = []
    assert decode_json_array('[3, {"a": 1},[2] , "x"]', lambda v: seen.append(v) or len(seen)) \
        == [1, 2, 3, 4]
    assert seen == [3, {"a": 1}, [2], "x"]


class _Rejected(Exception):
    pass


def _reject_at(k):
    calls = []

    def decode(v):
        calls.append(v)
        if len(calls) == k + 1:
            raise _Rejected(v)
        return v
    return decode


@given(array_texts(min_size=1), st.data())
def test_decode_error_gives_way_to_a_later_json_error(text, data):
    """An exception from ``decode`` is raised only if the whole text is valid
    JSON; a JSON error after the element that failed wins over it."""
    k = data.draw(st.integers(0, len(json.loads(text)) - 1))
    with pytest.raises(_Rejected):
        decode_json_array(text, _reject_at(k))
    for bad in (text + " x", text.rstrip()[:-1]):
        with pytest.raises(json.JSONDecodeError) as caught:
            decode_json_array(bad, _reject_at(k))
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(bad)
        assert str(caught.value) == str(expected.value)


def test_load_peak_is_the_text_plus_the_cases(tmp_path):
    """Loading 2,000 cases never holds the decoded array: the traced peak
    above what the load keeps is about one copy of the file's text (the
    text decoded from the bytes read), where holding the decoded array as
    well costs about 2.7 times the text."""
    path = tmp_path / "anns.json"
    text = json.dumps([make_ann(case_id=f"case-{i:05d}").to_dict() for i in range(2000)])
    path.write_text(text, encoding="utf-8")
    tracemalloc.start()
    try:
        anns = load_annotations(str(path))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(anns) == 2000
    assert peak - retained < 1.5 * len(text)
