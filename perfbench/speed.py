"""Host-speed normalisation of ``setup_s`` and ``run_s``.

The benchmark runs on a shared host whose speed drifts by up to 1.6x
over tens of seconds, with no change to the code: train-nodeagg's
measured run took 1.7 s in one iteration and 3.0 s a minute later.
Process CPU time drifts with wall time, and medians within one run
cannot remove a drift that outlasts the run.

So each phase is timed against a fixed *reference slice* of work that
is not the program's: generator resumption, dict updates and a heap (the
event engine's kind of interpreter work) for about half its time, and
array copies (the payload path's kind of memory work) for the other
half.  A :class:`SpeedProbe` takes one slice at regular host-time points
*inside* the phase, so the slices see the same host moments as the
program, and the phase is reported as::

    (measured seconds - slice seconds) * REFERENCE_S / mean slice seconds

host seconds at the reference speed.  A faster program still shows as a
smaller time: the slices are not the program's code.  The half-and-half
mix is the one that tracked all three workloads' measured run times
best on the host the benchmark was written on; interpreter work alone
over-corrected them.
"""

from __future__ import annotations

import heapq
from time import perf_counter

import numpy as np

__all__ = ["INTERVAL_S", "REFERENCE_S", "SpeedProbe", "reference_slice"]

#: Mean slice time at the reference speed (a shared 2-core x86 host at
#: its typical speed), so normalised seconds read like host seconds.
REFERENCE_S = 3.0e-4
#: Fewest host seconds between two slices, so slices sample a phase
#: evenly in time whatever the call rate of the hook they are taken from.
INTERVAL_S = 2e-3

_BLOCK = np.arange(1 << 14, dtype=np.float64)  # 128 KiB


def _events(n: int):
    for i in range(n):
        yield i


def reference_slice() -> int:
    """The fixed unit of work whose time measures the host's speed."""
    table: dict = {}
    heap: list = []
    for v in _events(300):
        k = v & 63
        table[k] = table.get(k, 0) + v
        heapq.heappush(heap, (v * 7919) % 10007)
        if len(heap) > 16:
            heapq.heappop(heap)
    for _ in range(12):
        block = _BLOCK.copy()
        block *= 1.5
    return len(table)


class SpeedProbe:
    """Reference slices taken during one phase of one iteration."""

    def __init__(self, tracer=None) -> None:
        self.seconds = 0.0  # host seconds spent in slices
        self.slices = 0
        self._tracer = tracer
        self._next = 0.0

    def tick(self) -> None:
        """Take a slice, unless the last one ended under ``INTERVAL_S`` ago."""
        t0 = perf_counter()
        if t0 < self._next:
            return
        reference_slice()
        t1 = perf_counter()
        self._next = t1 + INTERVAL_S
        self.seconds += t1 - t0
        self.slices += 1
        if self._tracer is not None:
            self._tracer.exclude(t1 - t0)

    def factor(self) -> float:
        """Reference speed over the host's speed during the slices."""
        return REFERENCE_S * self.slices / self.seconds if self.slices else 1.0

    def normalise(self, seconds: float) -> float:
        """Measured phase seconds -> host seconds at the reference speed."""
        return (seconds - self.seconds) * self.factor()
