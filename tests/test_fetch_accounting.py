"""Regression tests for the fetch-accounting and resilience-gap fixes.

Each test here fails against the pre-fix code:

* zero-size remote samples used to be counted in neither ``n_local`` nor
  ``n_remote`` (they were filtered out of the plan and forgotten),
* ``get_samples`` used to *assign* the cache's cumulative counters into
  ``FetchStats`` instead of accumulating deltas, so a ``stats`` reset
  silently resurrected the old totals on the next fetch,
* the reshard bulk path used to call ``transport.fetch`` directly —
  bypassing the retry/failover ladder and never checking
  ``outcome.timed_out``, stitching ``None`` payloads into the new chunk,
* with resilience disabled, ``get_samples`` and ``prefetch_wave`` used to
  crash with a ``TypeError`` on a timed-out read (the reshard path raised
  ``FetchTimeoutError``); every path now raises ``FetchTimeoutError``.
"""

import numpy as np

from repro.core import (
    DataPlaneOptions,
    DDStore,
    FetchStats,
    GeneratorSource,
    PreloadResult,
    ResilienceOptions,
)
from repro.dataplane import FetchOutcome, FetchTimeoutError
from repro.graphs import IsingGenerator
from repro.hardware import TESTBOX
from repro.mpi import run_world

N = 32  # 4 ranks x 8 samples in the default TESTBOX world


def run(fn, n_nodes=2, **kw):
    return run_world(TESTBOX, n_nodes, fn, **kw)


def _source(ctx, n=N):
    return GeneratorSource(IsingGenerator(n), ctx.world.machine)


class ZeroMixSource:
    """Packed samples where every third one is zero bytes long."""

    def __init__(self, n=N):
        self.n_samples = n
        self.sizes = [0 if i % 3 == 0 else 64 for i in range(n)]

    def payload(self, i):
        return np.full(self.sizes[i], i % 251, dtype=np.uint8)

    def load_chunk(self, indices, node_index, engine):
        blobs = [self.payload(int(i)) for i in indices]
        yield engine.timeout(1e-6)
        sizes = np.fromiter((b.size for b in blobs), dtype=np.int64, count=len(blobs))
        buffer = np.concatenate(blobs) if blobs else np.zeros(0, dtype=np.uint8)
        return PreloadResult(buffer=buffer, sizes=sizes)


class FlakyOnce:
    """Delegating transport wrapper whose FIRST fetch times out every read."""

    def __init__(self, inner, engine):
        self._inner = inner
        self._engine = engine
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def fetch(self, reads, n_streams=1, timeout_s=None):
        self.calls += 1
        if self.calls == 1:
            return self._fail(reads)
        if timeout_s is None:
            return self._inner.fetch(reads, n_streams=n_streams)
        return self._inner.fetch(reads, n_streams=n_streams, timeout_s=timeout_s)

    def _fail(self, reads):
        yield self._engine.timeout(1e-6)
        n = len(reads)
        return FetchOutcome(
            payloads=[None] * n,
            latencies=np.zeros(n, dtype=np.float64),
            stage_seconds={},
            timed_out=np.ones(n, dtype=bool),
        )


# ---------------------------------------------------------------------------
# zero-size samples must be accounted
# ---------------------------------------------------------------------------

def test_zero_size_remote_samples_counted_in_n_remote():
    src = ZeroMixSource()

    def main(ctx):
        store = yield from DDStore.create(ctx.comm, ZeroMixSource())
        blobs = yield from store.get_samples(range(N), decode="raw")
        s = store.stats
        return ([int(b.size) for b in blobs], s.n_local, s.n_remote)

    job = run(main)
    for sizes, n_local, n_remote in job.results:
        assert sizes == src.sizes  # zero-size payloads come back empty, in order
        assert n_local == 8  # this rank's own chunk
        # Every non-local id is remote-served, including the zero-byte ones
        # (pre-fix they were dropped from the plan and never counted).
        assert n_remote == N - 8
        assert n_local + n_remote == N


def test_zero_size_payload_contents_roundtrip():
    src = ZeroMixSource()

    def main(ctx):
        store = yield from DDStore.create(ctx.comm, ZeroMixSource())
        blobs = yield from store.get_samples(range(N), decode="raw")
        return [bytes(b.tobytes()) for b in blobs]

    job = run(main)
    expected = [src.payload(i).tobytes() for i in range(N)]
    for blobs in job.results:
        assert blobs == expected


# ---------------------------------------------------------------------------
# cache counters must accumulate deltas, not mirror cumulative totals
# ---------------------------------------------------------------------------

def test_stats_reset_does_not_resurrect_cache_counters():
    def main(ctx):
        store = yield from DDStore.create(
            ctx.comm,
            _source(ctx),
            dataplane=DataPlaneOptions(cache_bytes=1 << 20),
        )
        lo, hi = store.local_range
        remote = [(hi + 1) % N, (hi + 2) % N]
        yield from store.get_samples(remote)  # cold: 2 misses + inserts
        yield from store.get_samples(remote)  # warm: 2 hits
        before = store.stats.n_cache_hits
        store.stats = FetchStats()  # a fresh measurement window
        yield from store.get_samples(range(lo, hi))  # local-only traffic
        return (before, store.stats.n_cache_hits, store.stats.n_cache_misses)

    job = run(main)
    for before, hits_after, misses_after in job.results:
        assert before == 2
        # Pre-fix: ``stats.n_cache_hits = cache.stats.hits`` re-imported the
        # cumulative total (2) into the freshly reset window.
        assert hits_after == 0
        assert misses_after == 0


def test_cache_counters_accumulate_across_windows():
    def main(ctx):
        store = yield from DDStore.create(
            ctx.comm,
            _source(ctx),
            dataplane=DataPlaneOptions(cache_bytes=1 << 20),
        )
        hi = store.local_range[1]
        remote = [(hi + 1) % N]
        yield from store.get_samples(remote)
        yield from store.get_samples(remote)
        yield from store.get_samples(remote)
        return (store.stats.n_cache_hits, store.stats.n_cache_misses)

    job = run(main)
    for hits, misses in job.results:
        assert (hits, misses) == (2, 1)


# ---------------------------------------------------------------------------
# reshard bulk path must ride the retry/failover ladder
# ---------------------------------------------------------------------------

def test_reshard_bulk_path_retries_timed_out_reads():
    def main(ctx):
        store = yield from DDStore.create(
            ctx.comm,
            _source(ctx),
            resilience=ResilienceOptions(
                timeout_s=1e-3, max_retries=2, backoff_s=1e-5, failover=False
            ),
        )
        expected = yield from store.get_samples(range(N), decode="raw")
        baseline_retries = store.stats.n_retries
        store.transport = FlakyOnce(store.transport, ctx.comm.engine)
        new = yield from store.reshard(width=2, close_old=False)
        got = yield from new.get_samples(range(N), decode="raw")
        ok = all(np.array_equal(a, b) for a, b in zip(expected, got))
        return (
            ok,
            store.stats.n_timeouts,
            store.stats.n_retries - baseline_retries,
        )

    job = run(main)
    for ok, n_timeouts, n_retries in job.results:
        # Pre-fix the bulk path called transport.fetch directly: the timed-out
        # batch's None payloads were concatenated into the new chunk.
        assert ok
        assert n_timeouts > 0
        assert n_retries > 0


def test_reshard_bulk_path_raises_when_resilience_disabled():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _source(ctx))
        store.transport = FlakyOnce(store.transport, ctx.comm.engine)
        try:
            yield from store.reshard(width=2, close_old=False)
        except FetchTimeoutError:
            return "raised"
        return "silently accepted timed-out reads"

    job = run(main)
    # Pre-fix: ``outcome.timed_out`` was never checked and the reshard
    # crashed later (or corrupted the new chunk) instead of failing loudly.
    assert all(r == "raised" for r in job.results)


def _first_fetch_times_out(fetch):
    """Run ``fetch(store)`` on a resilience-less store whose first wire
    read times out; report whether it raised FetchTimeoutError."""

    def main(ctx):
        store = yield from DDStore.create(
            ctx.comm, _source(ctx), dataplane=DataPlaneOptions(cache_bytes=1 << 20)
        )
        store.transport = FlakyOnce(store.transport, ctx.comm.engine)
        try:
            yield from fetch(store)
        except FetchTimeoutError:
            return "raised"
        return "silently accepted timed-out reads"

    return run(main).results


def test_get_samples_raises_when_resilience_disabled():
    # Pre-fix: the timed-out reads' None payloads crashed the demand path
    # with a TypeError instead of the reshard path's FetchTimeoutError.
    results = _first_fetch_times_out(lambda store: store.get_samples(range(N)))
    assert all(r == "raised" for r in results)


def test_prefetch_wave_raises_when_resilience_disabled():
    results = _first_fetch_times_out(
        lambda store: store.prefetch_wave([range(N // 2), range(N // 2, N)])
    )
    assert all(r == "raised" for r in results)
