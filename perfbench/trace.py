"""Host-time tracing of the program's layers, from outside the program.

:class:`HostTracer` wraps the public entry points of each layer (the
``LAYERS`` table: layer name -> functions) for one traced iteration and
records, per call, a span: layer, host start/end and busy time, self
time, virtual ``engine.now`` at start and end, parent span, and the
``rank``/``step`` the call served.

Two stacks are kept, because they answer different questions:

* the *running* stack is the host call stack of wrapped calls.  A
  generator call is timed per resumption, each resumption pushed as a
  frame, and a frame's duration is charged to the frame below it as
  child time — so self time is a span's busy time minus the time its
  child spans cover, exactly;
* one *logical* stack per simulated process (``Engine.active_process``)
  holds the spans open in that coroutine across its yields; its top is
  the parent of a new span.  Rank coroutines interleave, so a single
  stack would hand one rank's span another rank's parent.

A process inherits ``rank`` (and the current step) from the process that
spawned it; top-level processes are named ``rank<N>`` by the launcher.
The step counter advances at every trainer step (``EpochScheduler.event``)
or serving-tenant step (:meth:`HostTracer.mark_step`).

``sim`` (``Engine.step``) and ``obs`` (metric-registry calls) fire far
too often to keep a span each; they are aggregated only.  Span records
are capped at :data:`MAX_SPANS`; aggregates are always complete.
"""

from __future__ import annotations

import json
import types
from time import perf_counter

from .hooks import Patcher, resumptions

__all__ = ["HostTracer", "LAYERS", "AGGREGATE_ONLY", "MAX_SPANS"]

#: Span records kept per traced iteration; later spans are counted as dropped.
MAX_SPANS = 200_000

_COMM = "repro.mpi.comm:Comm."
_WIN = "repro.mpi.rma:WinHandle."
_SCACHE = "repro.dataplane.cache:SampleCache."
_TCACHE = "repro.dataplane.cache:TieredCache."
_SCHED = "repro.dataplane.scheduler:EpochScheduler."
_NODE = "repro.dataplane.nodeagg:NodeFetchCoordinator."
_PLAN = "repro.dataplane.planner:"

#: layer -> wrapped public functions ("module:qualname").
LAYERS: dict[str, tuple[str, ...]] = {
    "graphs.make": (
        "repro.graphs.ising:IsingGenerator.make",
        "repro.graphs.molecules:MoleculeGenerator.make",
        "repro.graphs.spectra:SpectrumGenerator.make",
    ),
    "gnn.build": ("repro.gnn.model:HydraGNN.__init__",),
    "gnn.trainer": ("repro.gnn.trainer:Trainer.train_epoch",),
    "storage.pack": (
        "repro.storage.serialization:pack_graph",
        "repro.storage.columnar:pack_shard",
        "repro.storage.columnar:pack_columns",
    ),
    "storage.stage": (
        "repro.storage.vfs:VirtualFS.create",
        "repro.storage.vfs:VirtualFS.append",
        "repro.storage.staging:stage_to_nvme",
        "repro.storage.staging:NVMeShardStore.stage",
        "repro.storage.staging:NVMeShardStore.write_behind",
    ),
    "storage.decode": (
        "repro.storage.serialization:unpack_graph",
        "repro.storage.formats:SampleStats.from_blob",
        "repro.storage.columnar:unpack_shard",
    ),
    "store.create": ("repro.core.store:DDStore.create",),
    "store.get_samples": ("repro.core.store:DDStore.get_samples",),
    "store.get_batch_arena": ("repro.core.store:DDStore.get_batch_arena",),
    "store.prefetch_wave": ("repro.core.store:DDStore.prefetch_wave",),
    "planner": tuple(
        _PLAN + name
        for name in (
            "FetchPlanner.plan",
            "FetchPlanner.plan_batches",
            "FetchPlanner.plan_node_wave",
            "FetchPlanner.plan_arena",
            "ArenaScatterMap.scatter",
        )
    ),
    "transport": (
        "repro.dataplane.transport:RmaTransport.fetch",
        "repro.dataplane.transport:P2PTransport.fetch",
    ),
    "mpi": tuple(
        _COMM + name
        for name in (
            "isend", "send", "irecv", "recv", "sendrecv", "barrier", "bcast", "gather",
            "allgather", "scatter", "reduce", "allreduce", "alltoall", "split", "fuse", "dup",
        )
    )
    + tuple(_WIN + name for name in ("lock", "unlock", "fence", "get", "get_batch", "put")),
    "cache": tuple(
        _SCACHE + name
        for name in (
            "set_future", "advance_to", "get", "get_columns", "put", "put_columns",
            "put_owned", "pop", "clear",
        )
    )
    + tuple(
        _TCACHE + name
        for name in (
            "set_future", "advance_to", "put", "put_columns", "clear", "fast_get",
            "fast_resident", "count_miss", "nvme_resident", "promote_batch", "stage_up",
        )
    ),
    "scheduler": tuple(
        _SCHED + name for name in ("__init__", "start", "event", "advance", "drain", "finish")
    ),
    "nodeagg": tuple(_NODE + name for name in ("lookup", "register", "publish", "finish", "abort")),
    "serving.drr": (
        "repro.serving.drr:DrrArbiter.acquire",
        "repro.serving.drr:DrrArbiter.release",
        "repro.serving.drr:TenantLane.acquire",
        "repro.serving.drr:TenantLane.release",
    ),
    "sim": ("repro.sim.engine:Engine.step",),
    "obs": (
        "repro.obs.metrics:MetricsRegistry.counter",
        "repro.obs.metrics:MetricsRegistry.gauge",
        "repro.obs.metrics:MetricsRegistry.histogram",
        "repro.obs.metrics:Counter.inc",
        "repro.obs.metrics:Gauge.set",
        "repro.obs.metrics:Gauge.add",
        "repro.obs.metrics:Histogram.observe",
        "repro.obs.tracing:SpanCollector.record",
    ),
}

#: Layers aggregated without per-call span records (too frequent).
AGGREGATE_ONLY = frozenset({"sim", "obs"})


class _Layer:
    __slots__ = ("calls", "incl", "self_s", "nbytes", "requests", "reads")

    def __init__(self) -> None:
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.nbytes = 0  # bytes returned (packed payloads)
        self.requests = 0  # requests planned, over the fetch plans returned
        self.reads = 0  # wire reads those plans issue


class HostTracer:
    """Per-layer host spans for one traced workload iteration."""

    def __init__(self) -> None:
        self.layers: dict[str, _Layer] = {name: _Layer() for name in LAYERS}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.measured_events = 0  # Engine.step calls after mark_measuring()
        self._measuring = False
        self._running: list[list] = []  # [child seconds, layer] per frame
        self._logical: dict[object, list[int]] = {}  # process -> open span ids
        self._ctx: dict[object, list[int]] = {}  # process -> [rank, step]
        self._engine = None
        self._next_id = 0
        self._t0 = perf_counter()

    # -- installation ---------------------------------------------------
    def install(self, patcher: Patcher) -> None:
        for layer, targets in LAYERS.items():
            for target in targets:
                patcher.wrap(target, self._wrapper(layer))
        patcher.wrap("repro.sim.engine:Engine.process", self._wrap_process)

    def _wrapper(self, layer: str):
        if layer == "sim":
            return self._wrap_step
        record = layer not in AGGREGATE_ONLY
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                return tracer._call(layer, record, fn, args, kwargs)

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _wrap_step(self, fn):
        tracer = self
        acc = self.layers["sim"]

        def step(engine):
            tracer._engine = engine
            if tracer._measuring:
                tracer.measured_events += 1
            frame = [0.0, "sim"]
            running = tracer._running
            running.append(frame)
            t0 = perf_counter()
            try:
                fn(engine)
            finally:
                dt = perf_counter() - t0
                running.pop()
                if running:
                    running[-1][0] += dt
                acc.calls += 1
                acc.incl += dt
                acc.self_s += dt - frame[0]

        return step

    def _wrap_process(self, fn):
        tracer = self

        def process(engine, generator, name=""):
            proc = fn(engine, generator, name)
            tracer._engine = engine
            if name.startswith("rank") and name[4:].isdigit():
                tracer._ctx[proc] = [int(name[4:]), 0]
            else:
                parent = tracer._ctx.get(engine.active_process)
                tracer._ctx[proc] = list(parent) if parent is not None else [-1, 0]
            return proc

        return process

    # -- step / phase marks -------------------------------------------------
    def mark_measuring(self) -> None:
        """Start counting engine events as measured-phase work."""
        self._measuring = True

    def mark_step(self) -> None:
        """Advance the step id of the active simulated process."""
        if self._engine is not None:
            ctx = self._ctx.get(self._engine.active_process)
            if ctx is not None:
                ctx[1] += 1

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` of the benchmark's own work out of the running
        layer's self time."""
        if self._running:
            self._running[-1][0] += seconds

    # -- timing -------------------------------------------------------------
    def _where(self):
        """(process, parent span id, rank, step, virtual now)."""
        engine = self._engine
        if engine is None:
            return None, -1, -1, 0, 0.0
        proc = engine.active_process
        stack = self._logical.get(proc)
        parent = stack[-1] if stack else -1
        rank, step = self._ctx.get(proc, (-1, 0))
        return proc, parent, rank, step, engine.now

    def _call(self, layer: str, record: bool, fn, args, kwargs):
        frame = [0.0, layer]
        running = self._running
        nested = bool(running) and running[-1][1] == layer
        running.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            running.pop()
            if running:
                running[-1][0] += dt
        if isinstance(result, types.GeneratorType):
            # The call only built the coroutine; its work happens per
            # resumption and is accounted by the proxy (creation is noise).
            return self._drive(layer, record, result)
        acc = self.layers[layer]
        if not nested:  # a layer calling itself is one call of that layer
            acc.calls += 1
            acc.incl += dt
        acc.self_s += dt - frame[0]
        if isinstance(result, (bytes, bytearray)):
            acc.nbytes += len(result)
        elif not nested and hasattr(result, "n_requests"):  # an outermost FetchPlan
            acc.requests += result.n_requests
            acc.reads += result.n_reads
        if record:
            _proc, parent, rank, step, vnow = self._where()
            self._record(layer, fn, t0, t0 + dt, dt, dt - frame[0], vnow, vnow, parent, rank, step)
        return result

    def _drive(self, layer: str, record: bool, gen):
        running = self._running
        span_id = self._next_id
        self._next_id += 1
        proc, parent, rank, step, v_start = self._where()
        nested = bool(running) and running[-1][1] == layer
        stack = self._logical.setdefault(proc, [])
        stack.append(span_id)
        frame: list = []
        # first resumption start, last resumption end, busy seconds, self seconds
        times = [None, 0.0, 0.0, 0.0]

        def before() -> None:
            frame[:] = [0.0, layer, perf_counter()]
            running.append(frame)
            if times[0] is None:
                times[0] = frame[2]

        def after() -> None:
            end = perf_counter()
            dt = end - frame[2]
            running.pop()
            if running:
                running[-1][0] += dt
            times[1] = end
            times[2] += dt
            times[3] += dt - frame[0]

        try:
            return (yield from resumptions(gen, before, after))
        finally:
            if stack and stack[-1] == span_id:
                stack.pop()
            elif span_id in stack:
                stack.remove(span_id)
            first, last, busy, self_s = times
            acc = self.layers[layer]
            if not nested:
                acc.calls += 1
                acc.incl += busy
            acc.self_s += self_s
            if record and first is not None:
                v_end = self._engine.now if self._engine is not None else v_start
                self._record(layer, gen, first, last, busy, self_s, v_start, v_end, parent,
                             rank, step, span_id)

    def _record(self, layer, fn, t_start, t_end, busy, self_s, v_start, v_end, parent, rank,
                step, span_id=None):
        if len(self.spans) >= MAX_SPANS:
            self.dropped += 1
            return
        if span_id is None:
            span_id = self._next_id
            self._next_id += 1
        self.spans.append(
            (
                span_id,
                layer,
                getattr(fn, "__qualname__", getattr(fn, "__name__", "?")),
                t_start - self._t0,
                t_end - self._t0,
                busy,
                self_s,
                v_start,
                v_end,
                parent,
                f"r{rank}s{step}",
            )
        )

    # -- reporting ----------------------------------------------------------
    def table(self) -> dict[str, dict]:
        """Per-layer ``{calls, incl_s, self_s}`` (self never exceeds incl)."""
        return {
            name: {"calls": acc.calls, "incl_s": acc.incl, "self_s": acc.self_s}
            for name, acc in self.layers.items()
        }

    def write(self, path: str, extra: dict) -> None:
        fields = (
            "id", "layer", "name", "host_start_s", "host_end_s", "host_busy_s", "self_s",
            "virtual_start_s", "virtual_end_s", "parent", "rank_step",
        )
        doc = dict(
            extra,
            layers=self.table(),
            span_fields=fields,
            spans=self.spans,
            spans_dropped=self.dropped,
        )
        with open(path, "w") as fh:
            json.dump(doc, fh)
