"""The benchmark's three workloads, each one fresh set-up plus a measured run.

Every workload is a closed loop driven from this one process: simulated
ranks (and serving tenants) are coroutines on the program's event
engine.  The seed is the only source of randomness handed to the
program; it drives the dataset, the shuffle, network jitter and the
tenant schedules.

One :func:`iterate` call is one *iteration*: it clears the program's
process-wide caches (``clear_blob_cache``/``clear_experiment_cache``),
so the iteration pays dataset generation, packing, staging, store
create/preload and model build again, then runs the measured epochs (or
the serving window).  Host time is split at the first measured step:
before it is set-up, after it the measured run.  Both are reported at
the reference host speed (:mod:`.speed`) as ``setup_s`` and ``run_s``,
from speed slices taken as the dataset generators make samples (set-up)
and as prefetch waves start (training) or tenants step (serving).
Virtual-time metrics are read from the program's own roll-ups
(``ExperimentResult``, the ``Observer`` metrics registry, ``MPIStats``,
``PhaseTimes``).

A *check* iteration also runs the output probe (:mod:`.check`); timed
iterations carry only the set-up/run boundary and the wave timer.  With
a :class:`~.trace.HostTracer` the iteration is the traced run: spans at
every layer boundary plus ``Observer(trace=True)`` so the program's
critical-path analyzer can check ``sum(stage) == epoch``.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Optional

import numpy as np

from repro import client
from repro.bench import clear_experiment_cache
from repro.bench.harness import ExperimentConfig, clear_blob_cache, packed_blobs, run_experiment
from repro.bench.serving import TenantSpec
from repro.core import FETCH_STAGES, DataPlaneOptions, ServingOptions
from repro.core.preloader import GeneratorSource
from repro.dataplane.retry import FetchTimeoutError
from repro.graphs.ising import IsingGenerator
from repro.hardware import get_machine
from repro.mpi import run_world
from repro.mpi.comm import World
from repro.obs import CriticalPathError, Observer, analyze
from repro.serving import AdmissionError

from .check import OutputProbe
from .hooks import Patcher
from .speed import SpeedProbe
from .trace import HostTracer

__all__ = ["WORKLOADS", "TINY", "Iteration", "iterate"]

# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------

#: train-tiered: the tiered ablation's headline cell (Summit, 24 ranks,
#: ~150 KB spectra, columnar arenas, depth-2 Belady waves, gpu+dram+nvme).
#: Sized to one batch of 8 per rank per epoch (192 samples, ~29 MB), so
#: the NVMe tier (16 MiB per node) stays smaller than the dataset and the
#: waves split between NVMe promotion and the wire.
TIERED = ExperimentConfig(
    machine="summit",
    n_nodes=4,
    dataset="aisd-ex-smooth",
    shuffle="global",
    batch_size=8,
    steps_per_epoch=1,
    epochs=48,
    hidden_dim=16,
    columnar=True,
    scheduler=True,
    prefetch_depth=2,
    cache_policy="belady",
    tiers="gpu:2m+dram:4m+nvme:16m",
)

#: train-nodeagg: the nodeagg ablation's straddling topology (Summit,
#: 2 nodes / 12 ranks, width 4 on 6-GPU nodes) on ~3.4 KB discrete
#: samples under the sampled shuffler, with the paper-size model.
NODEAGG = ExperimentConfig(
    machine="summit",
    n_nodes=2,
    width=4,
    dataset="aisd-ex-discrete",
    shuffle="sampled",
    batch_size=48,
    steps_per_epoch=4,
    epochs=30,
    hidden_dim=200,
    scheduler=True,
    prefetch_depth=8,
    cache_bytes=64 << 20,
    cache_policy="belady",
    node_fetch=True,
)

#: Self-test sizes: same mechanisms, seconds instead of minutes.
TINY = {
    "train-tiered": replace(
        TIERED, n_nodes=1, batch_size=2, epochs=2, tiers="gpu:64k+dram:128k+nvme:1m"
    ),
    "train-nodeagg": replace(NODEAGG, batch_size=4, steps_per_epoch=2, epochs=2, hidden_dim=16),
}


@dataclass(frozen=True)
class ServeConfig:
    machine: str = "perlmutter"
    n_nodes: int = 4
    n_samples: int = 512
    width: int = 2
    cache_bytes: int = 2 << 20
    steps: int = 48  # batch tenants' steps; the interactive tenant runs 2x


#: The serving ablation's fairness settings (DRR, QoS weights 4:1).
SERVING = ServingOptions(
    max_tenants=4,
    qos=(("interactive", 4), ("batch", 1)),
    drr_quantum_bytes=8 << 10,
    target_inflight_bytes=16 << 10,
    max_inflight_bytes=256 << 10,
)


def tenant_specs(steps: int) -> tuple[TenantSpec, ...]:
    """One interactive tenant (batch 4) against three batch tenants (batch 16)."""
    return (
        TenantSpec("fg-infer", "interactive", batch_size=4, steps=2 * steps, compute_s=1.5e-3),
        *(
            TenantSpec(f"bg-train{i}", "batch", batch_size=16, steps=steps, compute_s=4e-3)
            for i in range(3)
        ),
    )


SERVE = ServeConfig()
TINY["serve-mixed"] = replace(SERVE, n_nodes=1, n_samples=64, steps=4)

WORKLOADS = {"train-tiered": TIERED, "train-nodeagg": NODEAGG, "serve-mixed": SERVE}


# ---------------------------------------------------------------------------
# one iteration
# ---------------------------------------------------------------------------


@dataclass
class Iteration:
    """What one fresh set-up + measured run produced."""

    setup_s: float  # at the reference host speed
    raw_setup_s: float  # as measured
    run_s: float  # at the reference host speed
    raw_run_s: float  # as measured
    virtual: dict  # end-to-end virtual metrics (deterministic per seed)
    counts: dict  # sample count behind each percentile
    layers: dict  # per-layer virtual and count metrics
    attempted: int  # sample reads delivered to the trainer or requested by tenants
    failed: int  # exhausted retries + refused admissions + probe mismatches
    probed: int  # samples the output probe checked
    fingerprint: tuple  # virtual results, for bit-identity across reruns
    problems: list = field(default_factory=list)
    tracer: Optional[HostTracer] = None


def iterate(name: str, seed: int, *, tiny: bool = False, tracer: Optional[HostTracer] = None,
            check: bool = False) -> Iteration:
    """Run one iteration of workload ``name``; ``check`` adds the output probe."""
    cfg = (TINY if tiny else WORKLOADS)[name]
    clear_blob_cache()
    clear_experiment_cache()
    gc.collect()  # the last iteration's garbage is not this one's host time
    probe = OutputProbe() if check else None
    with Patcher() as patcher:
        if probe is not None:
            probe.install(patcher)
        if tracer is not None:
            tracer.install(patcher)
        if isinstance(cfg, ServeConfig):
            it = _serve(cfg, seed, probe, tracer, patcher)
        else:
            it = _train(replace(cfg, seed=seed), probe, tracer, patcher)
    it.tracer = tracer
    return it


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _boundary(marks: dict, tracer: Optional[HostTracer]):
    """Stamp host time at the first measured step (ends set-up)."""

    def mark() -> None:
        if "t" not in marks:
            marks["t"] = perf_counter()
            if tracer is not None:
                tracer.mark_measuring()

    return mark


#: Dataset generators; set-up takes its speed slices as they make samples.
_GENERATORS = (
    "repro.graphs.ising:IsingGenerator.make",
    "repro.graphs.molecules:MoleculeGenerator.make",
    "repro.graphs.spectra:SpectrumGenerator.make",
)


def _setup_speed(patcher: Patcher, marks: dict, tracer) -> SpeedProbe:
    """Speed slices during set-up, taken while the dataset is generated."""
    speed = SpeedProbe(tracer)

    def make(fn):
        def wrapper(*args, **kwargs):
            if "t" not in marks:
                speed.tick()
            return fn(*args, **kwargs)

        return wrapper

    for target in _GENERATORS:
        patcher.wrap(target, make)
    return speed


def _timed_waves(out: list, speed: SpeedProbe):
    """Wrap ``prefetch_wave`` to record each wave's virtual latency; waves
    run only in the measured epochs, so they pace the run's speed slices."""

    def make(fn):
        def prefetch_wave(store, batch_indices, n_workers=1, window=None):
            speed.tick()
            gen = fn(store, batch_indices, n_workers=n_workers, window=window)
            return _wave(gen, store.comm.engine, out)

        return prefetch_wave

    return make


def _wave(gen, engine, out: list):
    t0 = engine.now
    fetched = yield from gen
    out.append(engine.now - t0)
    return fetched


def _tier_sums(metrics) -> dict:
    sums = metrics.sum_by("ddstore.tier", "tier", "counter")
    return {f"{t}.{c}": v for (t, c), v in sums.items()}


def _layer_common(counters: dict, stages: dict, mpi, tiers: dict, node_nic: list) -> dict:
    """Per-layer virtual/count metrics shared by training and serving."""
    c = counters
    hits, misses = c.get("n_cache_hits", 0), c.get("n_cache_misses", 0)
    wire = c.get("bytes_node_wire", 0)
    out = {f"store.stage.{s}_vs": float(stages.get(s, 0.0)) for s in FETCH_STAGES}
    out.update(
        {
            "transport.wire_bytes": c.get("bytes_transferred", 0),
            "transport.timeouts": c.get("n_timeouts", 0),
            "transport.retries": c.get("n_retries", 0),
            "transport.failovers": c.get("n_failovers", 0),
            "mpi.calls": sum(mpi.count_by_call.values()),
            "mpi.call_vs": float(mpi.total_time),
            "mpi.bytes": sum(mpi.bytes_by_call.values()),
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cache.evictions": c.get("n_cache_evictions", 0),
            "cache.promoted": tiers.get("nvme.promotions", 0),
            "cache.tier.gpu.hits": tiers.get("gpu.hits", 0),
            "cache.tier.dram.hits": tiers.get("dram.hits", 0),
            "cache.tier.nvme.hits": tiers.get("nvme.hits", 0),
            "scheduler.waves": c.get("n_prefetch_waves", 0),
            "nodeagg.dedup_ratio": c.get("bytes_node_requested", 0) / wire if wire else 0.0,
            "nodeagg.fanout_bytes": c.get("bytes_fanout", 0),
            "hardware.inter_node_bytes": sum(n["tx_bytes"] for n in node_nic),
            "hardware.nic_tx_util_max": max((n["tx_util"] for n in node_nic), default=0.0),
        }
    )
    return out


# -- training ---------------------------------------------------------------


def _train(cfg: ExperimentConfig, probe: Optional[OutputProbe], tracer,
           patcher: Patcher) -> Iteration:
    marks: dict = {}
    mark = _boundary(marks, tracer)
    setup_speed = _setup_speed(patcher, marks, tracer)
    speed = SpeedProbe(tracer)
    waves: list = []

    def boundary(fn):
        def train_epoch(trainer, epoch):
            mark()
            return fn(trainer, epoch)

        return train_epoch

    patcher.wrap("repro.gnn.trainer:Trainer.train_epoch", boundary)
    patcher.wrap("repro.core.store:DDStore.prefetch_wave", _timed_waves(waves, speed))
    observer = Observer(trace=tracer is not None)
    problems: list = []
    t0 = perf_counter()
    r = run_experiment(cfg, observer=observer)
    t_end = perf_counter()
    mark()
    mismatches = 0
    if probe is not None:
        mismatches = probe.verify(packed_blobs(cfg.dataset, cfg.seed, cfg.resolved_samples()))
    if mismatches:
        problems.append(f"{mismatches} delivered samples differ from the reference bytes")
    if tracer is not None:
        try:
            analyze(observer.tracer.spans).check()
        except CriticalPathError as err:
            problems.append(f"critical path: {err}")

    lat = r.latencies
    virtual = {
        "throughput_vsps": r.throughput,
        "data_wait_vs": r.data_wait,
        "load_p50_vms": _pct(lat, 50) * 1e3,
        "load_p99_vms": _pct(lat, 99) * 1e3,
        "bulk_p99_vms": _pct(waves, 99) * 1e3,
    }
    ph = r.phases.seconds
    tiers = _tier_sums(observer.metrics)
    layers = _layer_common(r.fetch_counters, r.fetch_stages, r.mpi_stats, tiers, r.node_nic)
    layers.update(
        {
            "gnn.compute_vs": sum(
                ph.get(k, 0.0) for k in ("gpu_h2d", "gpu_forward", "gpu_backward", "optimizer")
            ),
            "gnn.comm_vs": ph.get("gpu_comm", 0.0),
            "scheduler.overlap_efficiency": r.overlap_efficiency,
            "store.preload_vs": r.preload_time,
            "serving.queue_vs.interactive": 0.0,
            "serving.queue_vs.batch": 0.0,
            **{f"serving.wire_bytes.{t.name}": 0 for t in tenant_specs(1)},
        }
    )
    fingerprint = (
        tuple(sorted(virtual.items())),
        tuple(sorted(r.fetch_counters.items())),
        tuple(sorted(r.fetch_stages.items())),
        tuple(r.epoch_seconds),
        tuple(tuple(sorted(n.items())) for n in r.node_nic),
    )
    return Iteration(
        setup_s=setup_speed.normalise(marks["t"] - t0),
        raw_setup_s=marks["t"] - t0,
        run_s=speed.normalise(t_end - marks["t"]),
        raw_run_s=t_end - marks["t"],
        virtual=virtual,
        counts={"load": int(lat.size), "bulk": len(waves)},
        layers=layers,
        attempted=sum(r.fetch_counters.get(k, 0) for k in ("n_local", "n_remote", "n_cache_hits")),
        failed=mismatches,
        probed=probe.n_probed if probe is not None else 0,
        fingerprint=fingerprint,
        problems=problems,
    )


# -- serving ----------------------------------------------------------------
# The loop below follows repro.bench.serving's concurrent cell
# (_tenant_job/_rank_main_serving), which run_serving_cell cannot be reused
# for: it needs the set-up/run boundary, the pooled raw latencies, refused
# admissions and exhausted reads, and an Observer of the benchmark's own.
# Keep the two in step when the serving ablation changes.


def _tenant_job(ctx, session, spec: TenantSpec, t_index: int, cfg: ServeConfig, seed: int,
                mark, speed: SpeedProbe, tracer, out: dict):
    """One tenant's closed loop on one rank: fetch a batch, model compute."""
    mark()
    rng = np.random.default_rng((seed, t_index, ctx.rank))
    latencies = []
    failed = 0
    for _step in range(spec.steps):
        speed.tick()
        if tracer is not None:
            tracer.mark_step()
        idx = rng.integers(0, cfg.n_samples, size=spec.batch_size)
        t0 = ctx.now
        try:
            yield from session.get_samples(idx, decode=False)
        except FetchTimeoutError:
            failed += int(idx.size)
        latencies.append(ctx.now - t0)
        yield ctx.engine.timeout(spec.compute_s)
    out[spec.name] = dict(latencies=latencies, n_samples=spec.steps * spec.batch_size,
                          failed=failed, queue=session.lane.queue_seconds)


def _serve_rank(ctx, cfg: ServeConfig, seed: int, mark, speed: SpeedProbe, tracer):
    source = GeneratorSource(IsingGenerator(cfg.n_samples, seed=seed), ctx.world.machine)
    t_create = ctx.now
    service = yield from client.serve(
        ctx.comm,
        source,
        width=cfg.width,
        dataplane=DataPlaneOptions(cache_bytes=cfg.cache_bytes),
        serving=SERVING,
    )
    preload = ctx.now - t_create
    tenants = tenant_specs(cfg.steps)
    sessions = {}
    refused = 0
    for spec in tenants:
        try:
            sessions[spec.name] = service.connect(spec.name, qos=spec.qos)
        except AdmissionError:
            refused += 1
    out: dict = {}
    yield from ctx.comm.barrier()
    t_begin = ctx.now
    procs = [
        ctx.engine.process(
            _tenant_job(ctx, sessions[spec.name], spec, i, cfg, seed, mark, speed, tracer, out),
            name=f"{spec.name}@{ctx.rank}",
        )
        for i, spec in enumerate(tenants)
        if spec.name in sessions
    ]
    yield ctx.engine.all_of(procs)
    window = ctx.now - t_begin
    yield from ctx.comm.barrier()
    service.close()
    return dict(preload=preload, window=window, tenants=out, refused=refused)


def _serve(cfg: ServeConfig, seed: int, probe: Optional[OutputProbe], tracer,
           patcher: Patcher) -> Iteration:
    marks: dict = {}
    mark = _boundary(marks, tracer)
    setup_speed = _setup_speed(patcher, marks, tracer)
    speed = SpeedProbe(tracer)
    observer = Observer(trace=tracer is not None)
    problems: list = []
    t0 = perf_counter()
    machine = get_machine(cfg.machine)
    world = World(machine, cfg.n_nodes, seed=seed)
    world.attach_observer(observer)
    job = run_world(machine, cfg.n_nodes, _serve_rank, cfg, seed, mark, speed, tracer,
                    seed=seed, world=world)
    t_end = perf_counter()
    mark()
    per_rank = job.results
    n_ranks = len(per_rank)
    tenants = tenant_specs(cfg.steps)

    mismatches = 0
    if probe is not None:
        mismatches = probe.verify(packed_blobs("ising", seed, cfg.n_samples))
    refused = sum(r["refused"] for r in per_rank)
    exhausted = sum(t["failed"] for r in per_rank for t in r["tenants"].values())
    if mismatches:
        problems.append(f"{mismatches} delivered samples differ from the reference bytes")
    if refused:
        problems.append(f"{refused} tenant admissions refused")
    if exhausted:
        problems.append(f"{exhausted} sample reads exhausted their retries")

    def lats(qos: str) -> np.ndarray:
        return np.concatenate(
            [
                np.asarray(r["tenants"][t.name]["latencies"])
                for r in per_rank
                for t in tenants
                if t.qos == qos and t.name in r["tenants"]
            ]
            or [np.empty(0)]
        )

    fg, bulk = lats("interactive"), lats("batch")
    window = max(r["window"] for r in per_rank)
    total = sum(t["n_samples"] for r in per_rank for t in r["tenants"].values())
    jobs = [t for r in per_rank for t in r["tenants"].values()]
    virtual = {
        "throughput_vsps": total / window if window else 0.0,
        "data_wait_vs": float(np.mean([sum(j["latencies"]) for j in jobs])) if jobs else 0.0,
        "load_p50_vms": _pct(fg, 50) * 1e3,
        "load_p99_vms": _pct(fg, 99) * 1e3,
        "bulk_p99_vms": _pct(bulk, 99) * 1e3,
    }

    m = observer.metrics
    counters = {k: int(v) for k, v in m.sum_by("ddstore.fetch", "counter").items()}
    for k, v in m.sum_by("ddstore.prefetch", "counter").items():
        counters[k] = counters.get(k, 0) + int(v)
    stages = {k: v / n_ranks for k, v in m.sum_by("ddstore.stage_seconds", "stage").items()}
    horizon = world.engine.now
    node_nic = [
        {"tx_bytes": int(n.nic_out.bytes_served), "tx_util": float(n.nic_out.utilisation(horizon))}
        for n in world.cluster.nodes
    ]
    layers = _layer_common(counters, stages, job.merged_stats(), _tier_sums(m), node_nic)
    layers["gnn.compute_vs"] = 0.0
    layers["gnn.comm_vs"] = 0.0
    layers["scheduler.overlap_efficiency"] = 0.0
    layers["store.preload_vs"] = max(r["preload"] for r in per_rank)
    for qos in ("interactive", "batch"):
        layers[f"serving.queue_vs.{qos}"] = sum(
            r["tenants"][t.name]["queue"]
            for r in per_rank
            for t in tenants
            if t.qos == qos and t.name in r["tenants"]
        )
    wire = m.sum_by("ddstore.tenant", "tenant", "counter")
    for t in tenants:
        layers[f"serving.wire_bytes.{t.name}"] = int(wire.get((t.name, "wire_bytes"), 0))
    fingerprint = (
        tuple(sorted(virtual.items())),
        tuple(sorted(counters.items())),
        tuple(sorted(stages.items())),
        tuple(sorted(layers.items())),
    )
    return Iteration(
        setup_s=setup_speed.normalise(marks["t"] - t0),
        raw_setup_s=marks["t"] - t0,
        run_s=speed.normalise(t_end - marks["t"]),
        raw_run_s=t_end - marks["t"],
        virtual=virtual,
        counts={"load": int(fg.size), "bulk": int(bulk.size)},
        layers=layers,
        attempted=total + refused,
        failed=mismatches + refused + exhausted,
        probed=probe.n_probed if probe is not None else 0,
        fingerprint=fingerprint,
        problems=problems,
    )
