"""Span-based tracing against the virtual clock, with Chrome export.

A :class:`SpanCollector` records :class:`SpanRecord` intervals (and
instant marks) in virtual time.  Records carry

* ``name`` — what happened (``mpi.MPI_Allreduce``, ``store.fetch``,
  ``gpu_forward``, ...),
* ``cat``  — the layer that emitted it (``trainer.epoch``,
  ``trainer.stage``, ``store``, ``store.stage``, ``dataplane``,
  ``mpi.collective``, ``mpi.p2p``, ``mpi.rma``) — the critical-path
  analyzer selects on categories, never on names,
* ``track`` — the rank whose timeline the span belongs to,
* ``lane``  — 0 for the compute/trainer timeline, 1 for the data
  plane/MPI timeline; one rank's prefetch pipeline overlaps its compute
  in virtual time, and two lanes keep the Chrome rendering readable,
* ``args`` — a sorted tuple of extra key/value detail.

:meth:`SpanCollector.to_chrome` emits the Chrome/Perfetto trace-event
JSON shape (``{"traceEvents": [...]}`` with ``ph: "X"`` complete events,
timestamps in microseconds, ``pid`` = lane, ``tid`` = rank) and
:func:`validate_chrome_trace` structurally checks a document against that
shape — the CI smoke step runs it on every exported trace.

Events are recorded in engine execution order, which is deterministic,
so the export is bit-identical across reruns of the same experiment.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

__all__ = [
    "SpanRecord",
    "SpanCollector",
    "chrome_trace_events",
    "validate_chrome_trace",
]

_LANE_NAMES = {0: "compute", 1: "dataplane"}


@dataclass(frozen=True)
class SpanRecord:
    """One closed interval of virtual time on a rank's timeline."""

    name: str
    cat: str
    track: int
    start: float
    end: float
    lane: int = 0
    args: tuple[tuple[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanCollector:
    """Collects spans and marks; bounded, deterministic, export-ready."""

    def __init__(self, engine=None, max_events: int = 1_000_000) -> None:
        self.engine = engine
        self.max_events = max_events
        self.spans: list[SpanRecord] = []
        self.marks: list[tuple[float, str, int]] = []  # (time, label, track)
        self.dropped = 0

    def bind(self, engine) -> None:
        """Attach the virtual clock (done by ``World.attach_observer``)."""
        self.engine = engine

    @property
    def now(self) -> float:
        if self.engine is None:
            raise RuntimeError("SpanCollector is not bound to an engine yet")
        return self.engine.now

    # -- recording --------------------------------------------------------
    def record(
        self,
        name: str,
        *,
        cat: str = "",
        track: int = 0,
        start: float,
        end: float,
        lane: int = 0,
        **args: Any,
    ) -> None:
        """Record an already-measured interval."""
        if len(self.spans) >= self.max_events:
            self.dropped += 1
            return
        self.spans.append(
            SpanRecord(
                name=name,
                cat=cat,
                track=track,
                start=start,
                end=end,
                lane=lane,
                args=tuple(sorted(args.items())),
            )
        )

    @contextmanager
    def span(
        self, name: str, *, cat: str = "", track: int = 0, lane: int = 0, **args: Any
    ) -> Iterator[None]:
        """Record the virtual-time extent of a ``with`` block.

        In coroutine code the block must contain the ``yield``ing calls
        for the span to have extent (pure-CPU work is free by
        construction).
        """
        start = self.now
        try:
            yield
        finally:
            self.record(
                name, cat=cat, track=track, start=start, end=self.now, lane=lane, **args
            )

    def mark(self, label: str, track: int = 0) -> None:
        if len(self.marks) >= self.max_events:
            self.dropped += 1
            return
        self.marks.append((self.now, label, track))

    # -- queries ----------------------------------------------------------
    def by_cat(self, cat: str) -> list[SpanRecord]:
        return [s for s in self.spans if s.cat == cat]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def tracks(self) -> list[int]:
        return sorted({s.track for s in self.spans})

    # -- export -----------------------------------------------------------
    def to_chrome(self) -> dict:
        """The Chrome/Perfetto trace-event JSON object."""
        events = chrome_trace_events(self.spans, self.marks)
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_events(
    spans: Sequence[SpanRecord], marks: Sequence[tuple] = ()
) -> list[dict]:
    """Chrome trace events (``ph: X``/``i`` + lane metadata) for spans and
    ``(time, label, track)`` marks."""
    events: list[dict] = []
    lanes = sorted({s.lane for s in spans}) or [0]
    for lane in lanes:
        events.append(
            dict(
                name="process_name",
                ph="M",
                pid=lane,
                tid=0,
                args={"name": _LANE_NAMES.get(lane, f"lane{lane}")},
            )
        )
    for s in spans:
        entry = dict(
            name=s.name,
            cat=s.cat or "span",
            ph="X",
            ts=s.start * 1e6,
            dur=s.duration * 1e6,
            pid=s.lane,
            tid=s.track,
        )
        if s.args:
            entry["args"] = dict(s.args)
        events.append(entry)
    for t, label, track in marks:
        events.append(dict(name=label, ph="i", ts=t * 1e6, pid=0, tid=track, s="t"))
    return events


def validate_chrome_trace(doc: Any) -> list[str]:
    """Structural check of the Chrome trace-event JSON shape.

    Returns a list of problems (empty = valid).  Checks the container
    shape, required per-event fields by phase, and non-negative
    timestamps/durations.
    """
    problems: list[str] = []
    if isinstance(doc, list):
        events = doc
    elif isinstance(doc, dict):
        events = doc.get("traceEvents")
        if not isinstance(events, list):
            return ["document has no 'traceEvents' list"]
    else:
        return [f"trace document must be a list or object, got {type(doc).__name__}"]
    if not events:
        problems.append("trace contains no events")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i} is not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            problems.append(f"event {i} missing name")
        if ph not in ("X", "B", "E", "i", "I", "M", "C"):
            problems.append(f"event {i} has unknown phase {ph!r}")
            continue
        for fld in ("pid", "tid"):
            if not isinstance(ev.get(fld), int):
                problems.append(f"event {i} missing integer {fld}")
        if ph == "M":
            continue  # metadata events carry no timestamp
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i} has invalid ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i} has invalid dur {dur!r}")
        if len(problems) > 50:
            problems.append("... further problems suppressed")
            break
    return problems
