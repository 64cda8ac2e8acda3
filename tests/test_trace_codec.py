"""The trace codec that ``_event_plan`` generates for each event kind.

``DecisionTrace.to_json`` is the one trace encoder; every trace drawn here,
odd values included, must give the bytes ``json.dumps`` gives for the
trace's object as a plain walk over its fields builds it
(``helpers.reference_trace_dict``), or the same error.
``event_from_dict`` reads each field with one inline test; every event
drawn here, well-formed or mutated, must decode as the loop over the fields
it replaced (``helpers.reference_event_decode``) decodes it.
"""

import json
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import ClassVar

import pytest
from hypothesis import example, given, strategies as st

from streamguard.model import (
    Alert,
    AlertSource,
    DecisionTrace,
    FastState,
    FrameSampled,
    Override,
    RateChange,
    SafetyState,
    SchemaError,
    SlowDispatched,
    SlowVerdict,
    _event_plan,
    _slot_twin,
    event_from_dict,
)

from helpers import reference_event_decode, reference_event_dict, reference_trace_dict

# Floats as the coordinator writes them, and what the template cannot write
# as json does: non-finite floats, and ints, which an API backend may report
# as a latency (within 2**53, so that each reads back as an equal float).
NUMBERS = st.floats() | st.integers(-(2**53), 2**53)
VERDICTS = st.sampled_from([0, 1])
EVENTS = st.one_of(
    st.builds(FrameSampled, NUMBERS, NUMBERS),
    st.builds(FastState, NUMBERS, st.sampled_from(SafetyState), NUMBERS),
    st.builds(SlowDispatched, NUMBERS, st.lists(NUMBERS, max_size=4).map(tuple)),
    st.builds(lambda times, verdict: SlowVerdict(*times, verdict),
              st.lists(NUMBERS, min_size=2, max_size=2).map(sorted), VERDICTS),
    st.builds(Override, NUMBERS),
    st.builds(Alert, NUMBERS, st.sampled_from(AlertSource)),
    st.builds(RateChange, NUMBERS, NUMBERS),
)
# An abort reason is drawn only for an aborted trace, the only one that may hold it.
ABORTS = st.just({"aborted": False}) | st.fixed_dictionaries(
    {"aborted": st.just(True), "abort_reason": st.none() | st.text()})
TRACES = st.builds(
    lambda abort, **fields: DecisionTrace(**fields, **abort), ABORTS,
    case_id=st.text(min_size=1), events=st.lists(EVENTS, max_size=6).map(tuple),
    end_to_end_latency=st.none() | NUMBERS, alert_stream_time=st.none() | NUMBERS,
    alert_source=st.none() | st.sampled_from(AlertSource))

# One event of every kind, as the coordinator builds them.
EVERY_KIND = (
    FrameSampled(t=0.0, rate=1.0),
    FastState(t=0.0, state=SafetyState.YELLOW, fast_latency=0.05),
    SlowDispatched(trigger_t=0.0, window_frame_times=(0.0, 0.5)),
    RateChange(t=0.0, new_rate=5.0),
    Override(t=0.4),
    Alert(t_alert=0.4, source=AlertSource.FAST),
    SlowVerdict(trigger_t=0.0, arrival_t=1.2, verdict=1),
)


class Seconds(float):
    """A float subclass, which json writes through ``float.__repr__``."""

    def __repr__(self):
        return f"Seconds({float(self)!r})"


def _outcome(call, arg):
    """The result's type and repr, or the exception's type and text.  The
    repr tells a float field of a decoded event from an int one."""
    try:
        result = call(arg)
    except Exception as exc:
        return type(exc), str(exc)
    return type(result), repr(result)


@given(TRACES)
@example(DecisionTrace("c", EVERY_KIND, 0.15000000000000008, 2.1, AlertSource.SLOW))
@example(DecisionTrace("c", ()))
@example(DecisionTrace("c", EVERY_KIND[:2], aborted=True, abort_reason='timeout: "t" \\ é'))
@example(DecisionTrace('quote " back \\ nl \n nul \x00 é 😀 \ud800', EVERY_KIND[:2]))
@example(DecisionTrace("c", (FastState(1.0, SafetyState.RED, math.inf),), math.inf, 1.0))
@example(DecisionTrace("c", (FrameSampled(math.nan, 1.0), SlowDispatched(0.0, (-math.inf,)))))
@example(DecisionTrace("c", (FastState(1.0, SafetyState.RED, 1),), end_to_end_latency=1))
# Each value below is written by json, not by its field's template.
@example(DecisionTrace("c", (FastState(1.0, AlertSource.SLOW, 0.1),),
                       alert_source=SafetyState.RED))
@example(DecisionTrace("c", (Alert(1.0, "fast"),)))
@example(DecisionTrace("c", (), alert_source="fast"))
@example(DecisionTrace("c", (SlowDispatched(0.0, [0.5, 1]),)))
@example(DecisionTrace("c", (RateChange(Seconds(0.5), Seconds(math.inf)),), Seconds(0.1)))
@example(DecisionTrace("c", (FrameSampled(0.0, 1.0),), True, False))
def test_to_json_writes_what_json_writes(trace):
    assert _outcome(DecisionTrace.to_json, trace) == _outcome(
        lambda t: json.dumps(reference_trace_dict(t)), trace)


@given(TRACES)
@example(DecisionTrace("c", EVERY_KIND, 0.15000000000000008, 2.1, AlertSource.SLOW))
def test_to_json_reads_back(trace):
    text = trace.to_json()
    constants = []  # the NaN and Infinity tokens json.loads reads outside strings
    decoded = json.loads(text, parse_constant=lambda c: constants.append(c) or float(c))
    # A NaN equals nothing.
    assert trace.to_dict() == reference_trace_dict(trace) or "NaN" in constants
    assert DecisionTrace.from_dict(decoded) == trace or "NaN" in constants


@pytest.mark.parametrize("verdict", [True, False, 0.0, 1.0])
def test_slow_verdict_refuses_what_is_no_int(verdict):
    """A bool or a float would be written as ``true`` or ``1.0``, which
    ``DecisionTrace.from_dict`` refuses."""
    with pytest.raises(SchemaError) as info:
        SlowVerdict(0.0, 1.0, verdict)
    assert str(info.value) == f"slow verdict must be 0 (SAFE) or 1 (DANGER), got {verdict!r}"


@pytest.mark.parametrize("verdict", [True, 1.0])
def test_a_verdict_set_past_the_check_is_written_by_json(verdict):
    """A verdict set by ``object.__setattr__`` skips the check; ``to_json``
    still writes what json writes."""
    event = SlowVerdict(0.0, 1.0, 1)
    object.__setattr__(event, "verdict", verdict)
    trace = DecisionTrace("c", (event,))
    assert trace.to_json() == json.dumps(reference_trace_dict(trace))


@pytest.mark.parametrize("event", [object(), None, {"kind": "override", "t": 1.0},
                                   SimpleNamespace(kind="nope", t=1.0)],
                         ids=["object", "none", "dict", "unknown_kind"])
def test_trace_with_a_non_event_is_refused(event):
    trace = DecisionTrace(case_id="c", events=(FrameSampled(t=0.0, rate=1.0), event))
    for write in (trace.to_dict, trace.to_json):
        with pytest.raises(TypeError) as info:
            write()
        assert str(info.value) == f"unknown event {event!r}"


def test_an_object_of_a_known_kind_is_written_by_its_kind():
    """``to_json`` writes each class it knows by its generated ``text``, and
    any other object by the ``text`` its ``kind`` names."""
    trace = DecisionTrace(case_id="c", events=(SimpleNamespace(kind="override", t=1.0),))
    assert trace.to_json() == json.dumps(reference_trace_dict(trace)) == (
        '{"case_id": "c", "events": [{"kind": "override", "t": 1.0}], "summary": '
        '{"end_to_end_latency": null, "alert_stream_time": null, "alert_source": null, '
        '"aborted": false}}')


# --- decoding, against the loop over the fields -------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
VALID = st.one_of(
    st.builds(FrameSampled, FINITE, FINITE),
    st.builds(FastState, FINITE, st.sampled_from(SafetyState), FINITE),
    st.builds(SlowDispatched, FINITE, st.lists(FINITE, max_size=3).map(tuple)),
    st.builds(lambda times, verdict: SlowVerdict(*times, verdict),
              st.lists(FINITE, min_size=2, max_size=2).map(sorted), st.sampled_from([0, 1])),
    st.builds(Override, FINITE),
    st.builds(Alert, FINITE, st.sampled_from(AlertSource)),
    st.builds(RateChange, FINITE, FINITE),
).map(reference_event_dict)
KEYS = st.sampled_from(["kind", "t", "rate", "state", "fast_latency", "trigger_t",
                        "window_frame_times", "arrival_t", "verdict", "t_alert", "source",
                        "new_rate", "note"])
VALUES = st.one_of(
    st.sampled_from(["1.5", "green", "fast", "purple", "", "override", True, False, None, 0, 1,
                     2, -1, 1.0, 10**400, math.nan, math.inf, [1], {}, [0.5, "x"], [0, 1.5]]),
    st.floats(), st.integers(), st.text(max_size=3))
# (what, index of the key it acts on, a key, a value)
MUTATIONS = st.lists(st.tuples(st.sampled_from(["drop", "add", "rename", "set"]),
                               st.integers(0, 5), KEYS, VALUES), max_size=3)


@given(VALID, MUTATIONS)
def test_event_decode_matches_the_field_loop(encoded, mutations):
    for what, i, key, value in mutations:
        old = list(encoded)[i % len(encoded)] if encoded else None
        if what == "add":
            encoded[key] = value
        elif old is None:
            continue
        elif what == "drop":
            del encoded[old]
        elif what == "rename":
            encoded[key] = encoded.pop(old)
        else:
            encoded[old] = value
    assert _outcome(event_from_dict, encoded) == _outcome(reference_event_decode, encoded)


@pytest.mark.parametrize("encoded", [
    {"kind": "override"},
    {"kind": "override", "t": 1.0, "note": ""},
    {"kind": "override", "time": 1.0},
    {"kind": "alert", "t": 1.0, "source": "fast"},
    {"kind": "frame_sampled", "t": "1.5", "rate": 1.0},
    {"kind": "frame_sampled", "t": 1.5, "rate": True},
    {"kind": "frame_sampled", "t": 10**400, "rate": 1.0},
    {"kind": "frame_sampled", "t": math.nan, "rate": 1},
    {"kind": "fast_state", "t": 1.0, "state": "purple", "fast_latency": 0.1},
    {"kind": "fast_state", "t": 1.0, "state": ["red"], "fast_latency": 0.1},
    {"kind": "fast_state", "t": 1.0, "state": {}, "fast_latency": 0.1},
    {"kind": "fast_state", "t": 1.0, "state": 1, "fast_latency": 0.1},
    {"kind": "alert", "t_alert": 1.0, "source": "Fast"},
    {"kind": "slow_dispatched", "trigger_t": 1, "window_frame_times": [0, "1.0"]},
    {"kind": "slow_dispatched", "trigger_t": 1.0, "window_frame_times": 0.5},
    {"kind": "slow_verdict", "trigger_t": 0.0, "arrival_t": 1.0, "verdict": 2},
    {"kind": "slow_verdict", "trigger_t": 0.0, "arrival_t": 1.0, "verdict": True},
    {"kind": "slow_verdict", "trigger_t": 0.0, "arrival_t": 1.0, "verdict": 1.0},
    {"kind": "slow_verdict", "trigger_t": 2.0, "arrival_t": 1.0, "verdict": 1},
    {"kind": "slow_verdict", "trigger_t": 0.0, "arrival_t": 1.0, "verdict": 10**400},
    {"kind": "nope"},
    {"kind": ["override"]},
    {"t": 1.0},
    [1],
    "override",
    None,
])
def test_event_decode_matches_the_field_loop_by_hand(encoded):
    assert _outcome(event_from_dict, encoded) == _outcome(reference_event_decode, encoded)


# --- a field with a default ---------------------------------------------------

@_slot_twin
@dataclass(frozen=True, slots=True)
class Noted:
    """An event kind whose last two fields have defaults."""

    t: float
    source: AlertSource = AlertSource.FAST
    rate: float = 1.0
    kind: ClassVar[str] = "noted"


NOTED_TEXT, NOTED_DECODE = _event_plan(Noted)


@pytest.mark.parametrize("event,encoded", [
    (Noted(0.5), {"kind": "noted", "t": 0.5}),
    (Noted(0.5, AlertSource.SLOW), {"kind": "noted", "t": 0.5, "source": "slow"}),
    (Noted(0.5, rate=2.0), {"kind": "noted", "t": 0.5, "rate": 2.0}),
    (Noted(0.5, AlertSource.SLOW, 2.0), {"kind": "noted", "t": 0.5, "source": "slow", "rate": 2.0}),
], ids=["both_default", "source_set", "rate_set", "both_set"])
def test_a_field_at_its_default_is_left_out(event, encoded):
    assert NOTED_TEXT(event) == json.dumps(encoded)
    assert NOTED_DECODE(encoded) == event
    # A default written out reads as well.
    full = {"kind": "noted", "t": 0.5, "source": event.source.value, "rate": event.rate}
    assert NOTED_DECODE(full) == event


@pytest.mark.parametrize("encoded", [
    {"kind": "noted", "t": 0.5, "note": ""},
    {"kind": "noted", "t": 0.5, "rate": 2.0, "note": ""},
])
def test_a_field_with_a_default_counts_in_the_key_check(encoded):
    with pytest.raises(SchemaError) as info:
        NOTED_DECODE(encoded)
    assert str(info.value) == "unknown key 'note' in event 'noted' (known: kind, t, source, rate)"


def test_event_plan_refuses_a_field_it_cannot_write():
    @_slot_twin
    @dataclass(frozen=True, slots=True)
    class Named:
        name: str
        kind: ClassVar[str] = "named"

    with pytest.raises(TypeError) as info:
        _event_plan(Named)
    assert str(info.value) == "Named.name: no JSON codec for <class 'str'>"
