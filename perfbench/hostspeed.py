"""Scaling measured times to a reference host speed.

On a shared host (the baselines in README.md come from a 2-vCPU VM whose
cores other machines also use) identical pure-Python work ran up to twice
as slow from one minute to the next.  No statistic taken inside a run of
a few dozen seconds removes that.  So a short fixed pure-Python job, the
probe, is timed right before and right after every measured operation,
and every ``PERIOD_S`` while it runs, from a timer signal handled in this
same thread.  The operation's wall time, less the time its probes took,
is then multiplied by ``REFERENCE_S`` over the mean probe time.  The
result is the operation's time on a host that runs the probe in
``REFERENCE_S``, about the uncontended speed of that VM.  Program changes move
the operation's time and not the probe's, so they show in full.  Changes
in host speed move both, and cancel.
"""

from __future__ import annotations

import gc
import json
import signal
import time

REFERENCE_S = 0.00125
PERIOD_S = 0.1


class _Item:
    def __init__(self, t: float):
        self.t = t


# Scanned by the probe: a working set the size of a long stream's frames,
# so the probe feels cache contention the way a frame scan does.
_ITEMS = tuple(_Item(i * 0.1) for i in range(30000))


def probe() -> float:
    """Seconds a fixed dict, string, JSON and object-scan job takes now, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict = {}
        for i in range(3000):
            key = f"k{i % 100}"
            counts[key] = counts.get(key, 0) + i
        json.dumps(sorted(counts.items(), key=lambda kv: kv[1]))
        last = None
        for item in _ITEMS:
            if item.t >= 0.0:
                last = item
        del last
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Times operations between probes; one probe sits between neighbours.

    ``probe_total`` is the wall time all probes have taken so far, so
    timers nested in an operation can leave it out too.
    """

    def __init__(self):
        self._last = None
        self._during: list = []
        self.probe_total = 0.0

    def reset(self) -> None:
        self._last = None

    def _probe(self) -> float:
        t0 = time.perf_counter()
        seconds = probe()
        self.probe_total += time.perf_counter() - t0
        return seconds

    def _on_timer(self, signum, frame) -> None:
        self._during.append(self._probe())

    def time(self, fn) -> tuple:
        """Run ``fn()``; returns (its value, wall seconds, scale to reference speed)."""
        before = self._probe() if self._last is None else self._last
        self._during = []
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        probed = self.probe_total
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            seconds = time.perf_counter() - t0 - (self.probe_total - probed)
            signal.signal(signal.SIGALRM, previous)
        self._last = self._probe()
        probes = [before, *self._during, self._last]
        return value, seconds, REFERENCE_S * len(probes) / sum(probes)
