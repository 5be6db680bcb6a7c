"""Node-aggregated wave fetch: byte-identity, resilience, and composition.

The tentpole property: with ``node_fetch=True`` every rank receives batches
*byte-identical* to the per-rank wave path — across row/columnar layouts,
cache policies, shuffle samplers, prefetch depths, and fault plans
(including a straggler under the leader's wire read, which must ride the
same retry/failover ladder as per-rank fetches).  Composition tests cover
the reshard fence mid-wave and per-tenant byte isolation on the serving
layer.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import client
from repro.core import (
    DataLoader,
    DataPlaneOptions,
    DDStore,
    DDStoreDataset,
    GeneratorSource,
    ResilienceOptions,
    ServingOptions,
)
from repro.dataplane.scheduler import EpochScheduler
from repro.faults import FaultPlan, SlowRank, install_faults
from repro.graphs import IsingGenerator
from repro.hardware import TESTBOX
from repro.mpi import run_world
from repro.mpi.comm import World
from repro.obs import Observer


def run(fn, n_nodes=2, **kw):
    return run_world(TESTBOX, n_nodes, fn, **kw)


def _source(ctx, n=32, seed=0):
    return GeneratorSource(IsingGenerator(n, seed=seed), ctx.world.machine)


def _digest(batch) -> bytes:
    """Canonical bytes of a collated batch, layout-independent."""
    parts = []
    for j in range(batch.n_graphs):
        g = batch.graph(j)
        parts.append(np.int64(g.sample_id).tobytes())
        for arr in (g.positions, g.node_features, g.edge_index, g.y):
            parts.append(np.ascontiguousarray(arr).tobytes())
    return b"".join(parts)


def _epoch(ctx, node_fetch, *, columnar=False, cache_policy="lru",
           shuffle="global", depth=4, resilience=None, n=32, batch_size=4,
           width=2):
    """Scheduler-driven epoch (the trainer's fetch loop, minus the GPU);
    returns each step's batch digest plus the store's fetch stats."""
    store = yield from DDStore.create(
        ctx.comm,
        _source(ctx, n=n),
        width=width,  # 2 = two replica groups: gives the ladder a failover target
        dataplane=DataPlaneOptions(
            cache_bytes=1 << 20,
            scheduler=True,
            prefetch_depth=depth,
            cache_policy=cache_policy,
            columnar=columnar,
            node_fetch=node_fetch,
        ),
        resilience=resilience,
    )
    loader = DataLoader(
        DDStoreDataset(store), ctx, batch_size=batch_size, shuffle=shuffle, seed=0
    )
    batches = loader.epoch_batches(0)
    sched = EpochScheduler(loader, batches, engine=ctx.engine, epoch=0)
    sched.start()
    digests = []
    for step in range(len(batches)):
        loaded = yield sched.event(step)
        sched.advance(step)
        digests.append(_digest(loaded.batch))
        release = getattr(loaded, "release", None)
        if release is not None:
            release()
    return digests, store.stats


# ---------------------------------------------------------------------------
# the tentpole property: aggregation changes timing and wire traffic, never bytes
# ---------------------------------------------------------------------------

@given(
    columnar=st.booleans(),
    cache_policy=st.sampled_from(["lru", "belady"]),
    shuffle=st.sampled_from(["global", "sampled"]),
    depth=st.integers(min_value=2, max_value=6),
    straggler=st.booleans(),
)
@settings(max_examples=8, deadline=None)
def test_node_fetch_batches_byte_identical(columnar, cache_policy, shuffle, depth, straggler):
    def job(node_fetch):
        kw = dict(
            columnar=columnar, cache_policy=cache_policy,
            shuffle=shuffle, depth=depth,
        )
        if straggler:
            # Rank 2 (a remote owner for node 0) is slow; both paths must
            # absorb it through the same retry/failover ladder.  The exact
            # timeout does not matter for byte identity — the final attempt
            # runs unbounded, so the ladder always terminates.
            world = World(TESTBOX, 2, seed=0)
            install_faults(
                world, FaultPlan("t", (SlowRank(rank=2, multiplier=50.0),))
            )
            kw["resilience"] = ResilienceOptions(
                timeout_s=2e-3, max_retries=3, backoff_s=1e-5
            )
            return run(lambda c: _epoch(c, node_fetch, **kw), world=world)
        return run(lambda c: _epoch(c, node_fetch, **kw))

    base = job(False)
    agg = job(True)
    for rank, ((d0, s0), (d1, s1)) in enumerate(zip(base.results, agg.results)):
        assert d0 == d1, f"rank {rank}: batch bytes diverge under node_fetch"
        assert s0.n_node_waves == 0
        assert s1.n_node_waves > 0  # aggregation actually engaged


# ---------------------------------------------------------------------------
# leader straggler: the aggregated wire read rides the retry/failover ladder
# ---------------------------------------------------------------------------

def test_node_fetch_leader_read_rides_retry_ladder():
    # Calibrate: healthy wave latencies bound the timeout.
    healthy = run(lambda c: _epoch(c, True))
    h_digests = [d for d, _s in healthy.results]

    def faulted():
        world = World(TESTBOX, 2, seed=0)
        install_faults(
            world, FaultPlan("t", (SlowRank(rank=2, multiplier=1000.0),))
        )
        res = ResilienceOptions(timeout_s=2e-3, max_retries=2, backoff_s=1e-5)
        return run(lambda c: _epoch(c, True, resilience=res), world=world)

    job = faulted()
    timeouts = sum(s.n_timeouts for _d, s in job.results)
    failovers = sum(s.n_failovers for _d, s in job.results)
    # The leader reads hitting the slow owner blew their deadline and were
    # re-routed to a replica — the same ladder demand fetches ride.
    assert timeouts > 0 and failovers > 0
    assert all(s.n_node_waves > 0 for _d, s in job.results)
    # ...and the payloads the node fanned out are still the right bytes.
    for (d, _s), h in zip(job.results, h_digests):
        assert d == h

    # Bit-determinism: the same faulted world replays identically.
    again = faulted()
    for (d1, s1), (d2, s2) in zip(job.results, again.results):
        assert d1 == d2
        assert s1.n_timeouts == s2.n_timeouts
        assert s1.n_failovers == s2.n_failovers
        assert s1.bytes_node_wire == s2.bytes_node_wire


# ---------------------------------------------------------------------------
# wire accounting: dedup saves bytes, fan-out delivers them
# ---------------------------------------------------------------------------

def test_node_fetch_dedups_wire_bytes_under_overlap():
    # The sampled shuffler draws with replacement from a skewed hotness
    # ranking, so node-local ranks request overlapping id sets — exactly
    # the traffic node aggregation exists to dedup.  A single replica
    # group spanning both nodes (width=None) keeps the node-mates' demand
    # on shared remote targets; with width == ranks-per-node the group
    # coincides with the node and their target ranges are disjoint.
    base = run(lambda c: _epoch(c, False, shuffle="sampled", depth=6, width=None))
    agg = run(lambda c: _epoch(c, True, shuffle="sampled", depth=6, width=None))
    base_wire = sum(s.bytes_prefetched for _d, s in base.results)
    agg_wire = sum(s.bytes_node_wire for _d, s in agg.results)
    requested = sum(s.bytes_node_requested for _d, s in agg.results)
    fanned = sum(s.bytes_fanout for _d, s in agg.results)
    assert 0 < agg_wire < base_wire  # strictly fewer wire bytes
    assert agg_wire < requested  # dedup: wire < sum of per-rank demand
    assert fanned > 0  # subscribers were fed over the intra-node path
    for _d, s in agg.results:
        # Fan-out time is priced and attributed to the new stage.
        assert s.n_fanout == 0 or s.prefetch_stage_seconds.get("fanout", 0.0) > 0


# ---------------------------------------------------------------------------
# composition: reshard fence mid-wave
# ---------------------------------------------------------------------------

def test_node_fetch_reshard_mid_wave_resumes_cleanly():
    n = 32
    gen = IsingGenerator(n, seed=0)

    def main(ctx):
        store = yield from DDStore.create(
            ctx.comm,
            _source(ctx, n=n),
            dataplane=DataPlaneOptions(
                cache_bytes=1 << 20, prefetch_depth=4, scheduler=True,
                node_fetch=True,
            ),
        )
        dataset = DDStoreDataset(store)
        loader = DataLoader(dataset, ctx, batch_size=4, shuffle="global", seed=0)
        batches = loader.epoch_batches(0)
        sched = EpochScheduler(loader, batches, engine=ctx.engine, epoch=0)
        sched.start()
        first = yield sched.event(0)
        sched.advance(0)
        # Fence mid-wave: in-flight node waves must resolve (or abort to
        # the residue path) before the reshard tears the transport down.
        drained = yield from sched.drain()
        new = yield from store.reshard(width=2)
        dataset.store = new
        got = [first]
        for step in range(1, len(batches)):
            loaded = yield sched.event(step)
            sched.advance(step)
            got.append(loaded)
        ok = all(
            loaded.batch.graph(j).allclose(gen.make(int(i)))
            for loaded, idx in zip(got, batches)
            for j, i in enumerate(idx)
        )
        yield from new.shutdown()
        return drained, len(got), ok

    job = run(main)
    for drained, n_batches, ok in job.results:
        assert drained > 0
        assert n_batches > 1
        assert ok


# ---------------------------------------------------------------------------
# composition: multi-tenant serving — per-tenant byte isolation
# ---------------------------------------------------------------------------

def _tenant_epoch(ctx, session, seed):
    loader = DataLoader(
        DDStoreDataset(session.store), ctx, batch_size=4, shuffle="global", seed=seed
    )
    batches = loader.epoch_batches(0)
    sched = EpochScheduler(loader, batches, engine=ctx.engine, epoch=0)
    sched.start()
    digests = []
    for step in range(len(batches)):
        loaded = yield sched.event(step)
        sched.advance(step)
        digests.append(_digest(loaded.batch))
    return digests


def test_node_fetch_tenant_byte_isolation():
    opts = DataPlaneOptions(
        cache_bytes=1 << 20, scheduler=True, prefetch_depth=4, node_fetch=True
    )
    serving = ServingOptions(max_tenants=2)

    def main(ctx, tenants):
        service = yield from client.serve(
            ctx.comm, _source(ctx), dataplane=opts, serving=serving
        )
        sessions = {t: service.connect(t, qos="batch") for t in tenants}
        out = {}

        def job_(name, session, seed):
            out[name] = yield from _tenant_epoch(ctx, session, seed)

        # Seed is a function of the tenant *name*, not its spawn order, so
        # solo and concurrent runs of one tenant share a permutation.
        seeds = {"a": 10, "b": 11}
        procs = [
            ctx.engine.process(job_(t, sessions[t], seeds[t]), name=t)
            for t in tenants
        ]
        yield ctx.engine.all_of(procs)
        return {
            t: (out[t], sessions[t].stats.counters()) for t in tenants
        }

    both = run(lambda c: main(c, ("a", "b")))
    solo_a = run(lambda c: main(c, ("a",)))
    solo_b = run(lambda c: main(c, ("b",)))
    for r_both, r_a, r_b in zip(both.results, solo_a.results, solo_b.results):
        for t, solo in (("a", r_a), ("b", r_b)):
            digests, counters = r_both[t]
            solo_digests, solo_counters = solo[t]
            # Exactly its own bytes, whether or not a neighbour shares the
            # store: batch payloads and every byte counter match the solo
            # run — tenants never share a rendezvous (coordinator keys
            # carry the tenant), so no wave, wire read, or fan-out of one
            # tenant is billed to the other.
            assert digests == solo_digests
            assert counters["n_node_waves"] == solo_counters["n_node_waves"] > 0
            for key in (
                "bytes_node_requested",
                "bytes_node_wire",
                "bytes_fanout",
                "bytes_prefetched",
                "bytes_transferred",
            ):
                assert counters[key] == solo_counters[key], (t, key)


def test_node_fetch_tenant_queue_seconds_reach_the_tenant_metric():
    # Regression: node-aggregated waves published 0 s of DRR queue wait to
    # the ``ddstore.tenant`` metric while the lanes and FetchStats recorded
    # it.  Tight in-flight caps make the two batch tenants queue.
    opts = DataPlaneOptions(
        cache_bytes=1 << 20, scheduler=True, prefetch_depth=4, node_fetch=True
    )
    serving = ServingOptions(
        max_tenants=2,
        target_inflight_bytes=4096,
        drr_quantum_bytes=2048,
        max_inflight_bytes=4096,
    )

    def main(ctx):
        service = yield from client.serve(
            ctx.comm, _source(ctx), dataplane=opts, serving=serving
        )
        sessions = [service.connect(t, qos="batch") for t in ("a", "b")]
        procs = [
            ctx.engine.process(_tenant_epoch(ctx, s, seed), name=s.name)
            for s, seed in zip(sessions, (10, 11))
        ]
        yield ctx.engine.all_of(procs)
        stats_queue = sum(
            s.stats.stage_seconds.get("queue", 0.0)
            + s.stats.prefetch_stage_seconds.get("queue", 0.0)
            for s in sessions
        )
        return sum(s.lane.queue_seconds for s in sessions), stats_queue

    world = World(TESTBOX, 2, seed=0)
    world.attach_observer(Observer(trace=False))
    job = run(main, world=world)
    lane_seconds = sum(lane for lane, _ in job.results)
    stats_seconds = sum(stats for _, stats in job.results)
    metric = world.obs.metrics.total("ddstore.tenant", counter="queue_seconds")
    assert lane_seconds > 0
    assert stats_seconds == pytest.approx(lane_seconds)
    assert metric == pytest.approx(lane_seconds)
