"""The dual-brain runtime: per-frame piecewise decisions, dynamic sampling,
asynchronous slow-path dispatch with fast-path override, trace emission.

Under the simulated clock the run is a deterministic single-threaded event
loop: sample times live on an integer microsecond grid and the slow worker
is serialized with the frame loop.  Under the wall clock the slow query
runs in a background thread while sampling continues.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .backends import (
    BackendError,
    FastQuery,
    PromptTemplate,
    SlowQuery,
    load_prompt,
    query_fast,
)
from .model import (
    Alert,
    AlertSource,
    CaseAnnotation,
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
from .parsing import FormatError, parse_slow_output

log = logging.getLogger(__name__)

_US = 1_000_000


class NoAlert(Exception):
    """The trace contains no alert; the case is excluded from latency means."""


@dataclass(frozen=True)
class CoordinatorConfig:
    window_size: int = 3
    stop_on_first_alert: bool = True
    clock: str = "sim"  # "sim" | "real"
    fail_toward_caution: bool = True
    gamma_low: float = 1.0
    gamma_high: float = 5.0
    actuation_lag: float = 0.0

    def __post_init__(self):
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if self.clock not in ("sim", "real"):
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


class WallClock:
    def __init__(self):
        import time

        self._time = time
        self._origin = time.monotonic()

    def now(self) -> float:
        return self._time.monotonic() - self._origin

    def wait_until(self, t: float) -> None:
        delta = t - self.now()
        if delta > 0:
            self._time.sleep(delta)


def _completed(fn, *args) -> Future:
    """``executor.submit`` for the sim clock: call ``fn`` now, return a finished
    future.  An exception from ``fn`` raises here, at dispatch, not in the future."""
    future = Future()
    future.set_result(fn(*args))
    return future


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


def run_case(manifest: FrameManifest, fast, slow, cfg: CoordinatorConfig,
             fast_prompt: Optional[PromptTemplate] = None,
             slow_prompt: Optional[PromptTemplate] = None) -> DecisionTrace:
    """Run the dual-brain protocol over one frame stream.

    Returns the full event trace.  Backend failures abort the case with a
    partial trace flagged ``aborted``; unparseable FastBrain output is
    treated as Yellow when ``fail_toward_caution`` is set.
    """
    fast_prompt = fast_prompt or load_prompt("fast")
    slow_prompt = slow_prompt or load_prompt("slow")
    clock = SimulatedClock() if cfg.clock == "sim" else WallClock()
    executor = ThreadPoolExecutor(max_workers=1) if cfg.clock == "real" else None
    submit = _completed if executor is None else executor.submit

    events: list = []
    sampled_frames: list = []
    pending: Optional[_PendingSlow] = None
    alert: Optional[Alert] = None
    end_to_end: Optional[float] = None
    aborted = False
    duration = manifest.duration

    rate = cfg.gamma_low
    t_next_us = 0

    def deliver_verdict(p: _PendingSlow) -> bool:
        """Record an arrived slow verdict; returns True when the run stops."""
        nonlocal alert, end_to_end
        clock.wait_until(p.arrival_t)
        events.append(SlowVerdict(trigger_t=p.trigger_t, arrival_t=p.arrival_t,
                                  verdict=p.verdict))
        if p.verdict == 1 and alert is None:
            alert = Alert(t_alert=p.arrival_t, source=AlertSource.SLOW)
            events.append(alert)
            end_to_end = p.arrival_t - p.trigger_t
            return cfg.stop_on_first_alert
        return False

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
            frame = manifest.latest_frame_at(t_next)
            events.append(FrameSampled(t=t_next, rate=rate))
            try:
                reply = query_fast(fast, FastQuery(frame=frame, prompt=fast_prompt))
                state, latency = reply.state, reply.latency
            except FormatError as exc:
                if not cfg.fail_toward_caution:
                    raise BackendError(f"unparseable fast output at t={t_next}: {exc}")
                log.warning("fast output unparseable at t=%s (%s); treating as yellow",
                            t_next, exc)
                state, latency = SafetyState.YELLOW, 0.0
            events.append(FastState(t=t_next, state=state, fast_latency=latency))
            sampled_frames.append(frame)

            if state == SafetyState.RED:
                if pending is not None:
                    events.append(Override(t=t_next))
                    pending.future.cancel()
                    pending = None  # a Red decision makes the verdict moot
                if alert is None:
                    alert = Alert(t_alert=frame.t, source=AlertSource.FAST)
                    events.append(alert)
                    end_to_end = (t_next - frame.t) + latency
                if cfg.stop_on_first_alert:
                    break
            elif state == SafetyState.YELLOW:
                if pending is None:
                    window = tuple(sampled_frames[-cfg.window_size:])
                    events.append(SlowDispatched(
                        trigger_t=t_next, window_frame_times=tuple(f.t for f in window)))
                    query = SlowQuery(window=window, prompt=slow_prompt)
                    pending = _PendingSlow(trigger_t=t_next, future=submit(slow.slow_raw, query))
            elif pending is not None:
                # A Green does not cancel an in-flight query; a later DANGER
                # verdict still alerts.
                log.debug("green at t=%s with slow query pending (trigger %s)",
                          t_next, pending.trigger_t)

            new_rate = cfg.gamma_low if state == SafetyState.GREEN else cfg.gamma_high
            if new_rate != rate:
                rate = new_rate
                events.append(RateChange(t=t_next, new_rate=rate))
            t_next_us += round(_US * (1.0 / rate))
    except BackendError as exc:
        log.error("case %s aborted: %s", manifest.case_id, exc)
        aborted = True
    finally:
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    return DecisionTrace(
        case_id=manifest.case_id,
        events=tuple(events),
        end_to_end_latency=end_to_end,
        alert_stream_time=None if alert is None else alert.t_alert,
        alert_source=None if alert is None else alert.source,
        physical_stop_time=None if alert is None else alert.t_alert + cfg.actuation_lag,
        aborted=aborted,
    )


def summarize_latency(trace: DecisionTrace, ann: CaseAnnotation) -> dict:
    """End-to-end latency and reaction bias (negative = early) for one trace."""
    if trace.alert_stream_time is None:
        raise NoAlert(f"case {trace.case_id} produced no alert")
    return {
        "end_to_end": trace.end_to_end_latency,
        "reaction_bias": trace.alert_stream_time - ann.key_frames.intent_onset,
    }
