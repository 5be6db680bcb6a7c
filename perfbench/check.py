"""Output checks: a probe of delivered samples vs reference bytes.

A run's *check iteration* (see ``perfbench/run.py``) wraps the store's
two delivery calls and records a digest of every sample each call
delivered, keyed by sample id; the seed fixes which samples those are.
After the iteration, :meth:`OutputProbe.verify` recomputes each digest
from the reference bytes of :func:`repro.bench.harness.packed_blobs` and
counts mismatches:

* row reads (``DDStore.get_samples`` with ``decode=False``, the only way
  the workloads call it): the raw packed payload, captured where the
  store hands it to ``SampleStats.from_blob``;
* columnar reads (``DDStore.get_batch_arena``): each sample's slice of
  every batch field (positions, node features, edge index, y);
* serving tenants go through ``TenantSession.get_samples``, which
  delegates to ``DDStore.get_samples``, so they are the row case.

Digests, not copies, are kept, so probing costs little memory.  The
timed iterations carry no probe, so its hashing never lands in ``run_s``.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence

import numpy as np

from .hooks import Patcher, resumptions

__all__ = ["OutputProbe", "arena_digests", "graph_digest", "payload_digest"]


def payload_digest(payload) -> bytes:
    """Digest of a packed payload (bytes or a uint8 array)."""
    if isinstance(payload, np.ndarray):
        payload = np.ascontiguousarray(payload)
    return hashlib.sha256(payload).digest()


def _fields_digest(positions, node_features, edge_index, y) -> bytes:
    h = hashlib.sha256()
    for arr in (positions, node_features, edge_index, y):
        h.update(np.ascontiguousarray(arr))
    return h.digest()


def arena_digests(arena, n: int) -> list[bytes]:
    """Digest of each of the ``n`` samples of a filled arena, read through
    the public ``collate(arena=...)`` view (edge ids batch-global, so
    shifted back)."""
    from repro.graphs import collate

    batch = collate(arena=arena)
    out = []
    for i in range(n):
        n0, n1 = int(batch.ptr[i]), int(batch.ptr[i + 1])
        e0, e1 = int(arena.edge_ptr[i]), int(arena.edge_ptr[i + 1])
        out.append(_fields_digest(
            batch.positions[n0:n1],
            batch.node_features[n0:n1],
            batch.edge_index[:, e0:e1] - np.int32(n0),
            batch.y[i],
        ))
    return out


def graph_digest(graph) -> bytes:
    """The arena digest a correctly scattered ``graph`` must produce."""
    return _fields_digest(
        np.asarray(graph.positions, np.float32),
        np.asarray(graph.node_features, np.float32),
        np.asarray(graph.edge_index, np.int32),
        np.asarray(graph.y, np.float32),
    )


class OutputProbe:
    """Output probe for one check iteration: every delivery call is probed."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, bytes]] = []
        self.arenas: list[tuple[int, bytes]] = []
        self.short_calls = 0  # calls that delivered the wrong number of samples
        self._collect: Optional[list] = None

    # -- installation ---------------------------------------------------
    def install(self, patcher: Patcher) -> None:
        patcher.wrap("repro.core.store:DDStore.get_samples", self._wrap_get_samples)
        patcher.wrap("repro.core.store:DDStore.get_batch_arena", self._wrap_get_batch_arena)
        patcher.wrap("repro.storage.formats:SampleStats.from_blob", self._wrap_from_blob)

    def _wrap_get_samples(self, fn):
        probe = self

        def get_samples(store, indices, decode=True, n_workers=1):
            gen = fn(store, indices, decode=decode, n_workers=n_workers)
            return probe._capture_rows(gen, np.asarray(indices, dtype=np.int64))

        return get_samples

    def _wrap_get_batch_arena(self, fn):
        probe = self

        def get_batch_arena(store, indices, arena, n_workers=1):
            gen = fn(store, indices, arena, n_workers=n_workers)
            return probe._capture_arena(gen, np.asarray(indices, dtype=np.int64), arena)

        return get_batch_arena

    def _wrap_from_blob(self, fn):
        probe = self

        def from_blob(cls, blob):
            if probe._collect is not None:
                probe._collect.append(payload_digest(blob))
            return fn(cls, blob)

        return from_blob

    # -- capture ----------------------------------------------------------
    def _capture_rows(self, gen, ids: np.ndarray):
        """A call that delivers no ``from_blob`` payloads (another decode
        mode) records no digests and so counts as a short call."""
        digests: list[bytes] = []

        def before() -> None:
            self._collect = digests

        def after() -> None:
            self._collect = None

        result = yield from resumptions(gen, before, after)
        self._record(self.rows, ids, digests)
        return result

    def _capture_arena(self, gen, ids: np.ndarray, arena):
        result = yield from gen
        self._record(self.arenas, ids, arena_digests(arena, ids.size))
        return result

    def _record(self, into: list, ids: np.ndarray, digests: Sequence[bytes]) -> None:
        if len(digests) != ids.size:
            self.short_calls += 1
            return
        into.extend(zip(ids.tolist(), digests))

    # -- verification -----------------------------------------------------
    @property
    def n_probed(self) -> int:
        return len(self.rows) + len(self.arenas)

    def verify(self, reference: Sequence[bytes]) -> int:
        """Mismatching probed samples (plus short calls) against ``reference``,
        the packed blob of every sample id."""
        from repro.storage import unpack_graph

        rows = {sid: payload_digest(reference[sid]) for sid in {sid for sid, _ in self.rows}}
        arenas = {
            sid: graph_digest(unpack_graph(reference[sid]))
            for sid in {sid for sid, _ in self.arenas}
        }
        bad = self.short_calls
        bad += sum(rows[sid] != digest for sid, digest in self.rows)
        bad += sum(arenas[sid] != digest for sid, digest in self.arenas)
        return bad
