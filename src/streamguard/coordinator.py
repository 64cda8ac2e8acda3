"""The dual-brain runtime: per-frame piecewise decisions, dynamic sampling,
asynchronous slow-path dispatch with fast-path override, trace emission.

Under the simulated clock the run is a deterministic single-threaded event
loop: sample times live on an integer microsecond grid, the slow worker is
serialized with the frame loop, and no FastBrain latency delays a sample.
Under the wall clock the slow query runs in a background thread while
sampling continues.  The clock object (``_CLOCKS``) owns both choices.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .backends import BackendError, load_prompt
from .model import (
    Alert,
    AlertSource,
    DecisionTrace,
    FastState,
    FrameManifest,
    FrameSampled,
    Override,
    RateChange,
    SafetyState,
    SlowDispatched,
    SlowVerdict,
    _EPS,
)
from .parsing import FormatError, parse_fast_output, parse_slow_output

log = logging.getLogger(__name__)

_US = 1_000_000


@dataclass(frozen=True)
class CoordinatorConfig:
    window_size: int = 3
    clock: str = "sim"  # a key of ``_CLOCKS``
    gamma_low: float = 1.0
    gamma_high: float = 5.0

    def __post_init__(self):
        # ``bool`` is an ``int``, and a float would fail only at the first slice.
        if type(self.window_size) is not int:
            raise ValueError(f"window_size must be an integer, got {self.window_size!r}")
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if self.clock not in _CLOCKS:
            raise ValueError(f"unknown clock {self.clock!r}")
        for rate in (self.gamma_low, self.gamma_high):
            if not (math.isfinite(rate) and rate > 0):
                raise ValueError(f"sampling rates must be positive and finite, got {rate}")
            if round(_US * (1.0 / rate)) < 1:
                raise ValueError(f"sampling rate {rate} gives an interval under 1 us")


class SimulatedClock:
    """Virtual clock: waiting is instantaneous and exactly reproducible."""

    def __init__(self):
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def wait_until(self, t: float) -> None:
        if t > self._now:
            self._now = t

    def submit(self, fn, *args) -> Future:
        """Call ``fn`` now; an exception from it raises here, at dispatch."""
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self) -> None:
        pass


class WallClock:
    """Real time: waiting sleeps, and the slow query runs on one worker thread."""

    def __init__(self):
        self._origin = time.monotonic()
        self._executor = ThreadPoolExecutor(max_workers=1)

    def now(self) -> float:
        return time.monotonic() - self._origin

    def wait_until(self, t: float) -> None:
        delta = t - self.now()
        if delta > 0:
            time.sleep(delta)

    def submit(self, fn, *args) -> Future:
        return self._executor.submit(fn, *args)

    def shutdown(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)


_CLOCKS = {"sim": SimulatedClock, "real": WallClock}


@dataclass
class _PendingSlow:
    trigger_t: float
    future: Future
    arrival_t: Optional[float] = None
    verdict: Optional[int] = None

    def resolve(self, now: float) -> bool:
        """Fix arrival and verdict once the slow reply is in; False while it is not."""
        if self.arrival_t is not None:
            return True
        if not self.future.done():
            return False
        raw, latency = self.future.result()
        try:
            self.verdict = parse_slow_output(raw)
        except FormatError as exc:
            log.warning("slow output unparseable (%s); treating as no-danger", exc)
            self.verdict = 0
        self.arrival_t = max(now, self.trigger_t + latency)
        return True


def run_case(manifest: FrameManifest, fast, slow, cfg: CoordinatorConfig) -> DecisionTrace:
    """Run the dual-brain protocol over one frame stream.

    Returns the full event trace; the first alert, fast or slow, ends the
    run.  Backend failures abort the case with a partial trace flagged
    ``aborted``; unparseable FastBrain output is treated as Yellow.  Each
    prompt is rendered here, from the manifest, for the frames it is sent with.

    A FastBrain reply equal to the last one that parsed in this case reuses
    that parse; its latency is still the current call's.  A reply that does
    not parse is never kept, so each such sample logs and counts as Yellow.
    A corpus benchmark pass takes 0.633 s with the reuse and 0.684 s parsing
    every reply, lower in 10 of 10 pairs (``BENCH_fastpath_ledger.json``).
    """
    fast_template = load_prompt("fast")
    slow_template = load_prompt("slow")
    clock = _CLOCKS[cfg.clock]()

    events: list = []
    sampled_frames: list = []
    pending: Optional[_PendingSlow] = None
    alert: Optional[Alert] = None
    end_to_end: Optional[float] = None
    aborted = False
    duration = manifest.duration

    rate = cfg.gamma_low
    step_us = round(_US * (1.0 / rate))
    t_next_us = 0
    # Bound once per case: the loop below runs once per sampled frame.
    latest_frame_at = manifest.latest_frame_at
    fast_raw = fast.fast_raw
    render_fast = fast_template.render
    pre_overlaid = manifest.pre_overlaid
    emit = events.append
    red, yellow, green = SafetyState.RED, SafetyState.YELLOW, SafetyState.GREEN
    # The last FastBrain reply that parsed, and its state.  The first reply
    # is always parsed: nothing equals a fresh ``object()``.
    parsed_raw: object = object()
    parsed_state = None

    def deliver_verdict(p: _PendingSlow) -> bool:
        """Record an arrived slow verdict; a DANGER verdict alerts, and True
        tells the caller that the alert ends the run."""
        nonlocal alert, end_to_end
        clock.wait_until(p.arrival_t)
        emit(SlowVerdict(p.trigger_t, p.arrival_t, p.verdict))
        if p.verdict != 1:
            return False
        alert = Alert(p.arrival_t, AlertSource.SLOW)
        emit(alert)
        end_to_end = p.arrival_t - p.trigger_t
        return True

    try:
        while True:
            t_next = t_next_us / _US
            past_end = t_next > duration + _EPS

            if pending is not None and pending.resolve(clock.now()):
                if pending.arrival_t <= t_next + _EPS or past_end:
                    p, pending = pending, None
                    if deliver_verdict(p):
                        break
                    continue
            if past_end:
                if pending is not None:
                    # Block for the in-flight result once the stream ends.
                    pending.future.result()
                    continue
                break

            clock.wait_until(t_next)
            frame = latest_frame_at(t_next)
            emit(FrameSampled(t_next, rate))
            try:
                raw, latency = fast_raw(render_fast((frame,), pre_overlaid), frame)
                if raw != parsed_raw:
                    parsed_state = parse_fast_output(raw)[0]
                    parsed_raw = raw
                state = parsed_state
            except FormatError as exc:
                log.warning("fast output unparseable at t=%s (%s); treating as yellow",
                            t_next, exc)
                state, latency = yellow, 0.0
            emit(FastState(t_next, state, latency))
            sampled_frames.append(frame)

            # The parser returns the enum members themselves, so ``is`` compares.
            if state is red:
                if pending is not None:
                    emit(Override(t_next))
                    pending.future.cancel()  # a Red decision makes the verdict moot
                alert = Alert(frame.t, AlertSource.FAST)
                emit(alert)
                end_to_end = (t_next - frame.t) + latency
                break
            elif state is yellow:
                if pending is None:
                    window = tuple(sampled_frames[-cfg.window_size:])
                    emit(SlowDispatched(t_next, tuple(f.t for f in window)))
                    text = slow_template.render(window, pre_overlaid)
                    pending = _PendingSlow(trigger_t=t_next,
                                           future=clock.submit(slow.slow_raw, text, window))
            # Otherwise the state is Green.  A Green does not cancel an
            # in-flight query; a later DANGER verdict still alerts.

            new_rate = cfg.gamma_low if state is green else cfg.gamma_high
            if new_rate != rate:
                rate = new_rate
                step_us = round(_US * (1.0 / rate))
                emit(RateChange(t_next, rate))
            t_next_us += step_us
    except BackendError as exc:
        log.error("case %s aborted: %s", manifest.case_id, exc)
        aborted = True
    finally:
        clock.shutdown()

    return DecisionTrace(
        case_id=manifest.case_id,
        events=tuple(events),
        end_to_end_latency=end_to_end,
        alert_stream_time=None if alert is None else alert.t_alert,
        alert_source=None if alert is None else alert.source,
        aborted=aborted,
    )
