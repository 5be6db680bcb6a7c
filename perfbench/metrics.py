"""Metric names and units, and the per-layer roll-up.

Suffixes name the clock: ``_s`` is host seconds, ``_vs`` virtual
seconds, ``_vms`` virtual milliseconds.  Names, units and directions are
read from ``BENCHMARK.json`` at the repository root, their one source;
this module holds only how each per-layer metric is rolled up.
"""

from __future__ import annotations

import json
import os
import statistics

__all__ = ["E2E", "PER_LAYER", "layer_metrics", "self_time_table"]

with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)

#: End-to-end metrics: name -> unit.
E2E = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
#: Per-layer metrics: name -> unit.  Host ``_s`` values are self times
#: from the traced run; the rest are read from the program's own counters
#: and are deterministic per seed.
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

#: Host self-time metrics: metric -> tracer layer.
_SELF = {
    "graphs.make_s": "graphs.make",
    "gnn.build_s": "gnn.build",
    "gnn.trainer_s": "gnn.trainer",
    "storage.pack_s": "storage.pack",
    "storage.stage_s": "storage.stage",
    "storage.decode_s": "storage.decode",
    "store.create_s": "store.create",
    "store.get_samples.self_s": "store.get_samples",
    "store.get_batch_arena.self_s": "store.get_batch_arena",
    "store.prefetch_wave.self_s": "store.prefetch_wave",
    "planner.self_s": "planner",
    "transport.self_s": "transport",
    "mpi.self_s": "mpi",
    "cache.self_s": "cache",
    "scheduler.self_s": "scheduler",
    "nodeagg.self_s": "nodeagg",
    "serving.drr_self_s": "serving.drr",
    "sim.self_s": "sim",
    "obs.self_s": "obs",
}

#: Host call counts: metric -> tracer layer.
_CALLS = {
    "graphs.samples": "graphs.make",
    "gnn.builds": "gnn.build",
    "store.get_samples.calls": "store.get_samples",
    "store.get_batch_arena.calls": "store.get_batch_arena",
    "store.prefetch_wave.calls": "store.prefetch_wave",
    "planner.calls": "planner",
    "transport.fetches": "transport",
}


def layer_metrics(traced: list, untraced_run_s: float) -> dict:
    """Every :data:`PER_LAYER` metric from the traced iterations.

    Host values are medians over the traced iterations; counter values
    come from the first (they are identical across same-seed iterations).
    ``untraced_run_s`` is the untraced median, the base of the tracing
    overhead and of ``sim.us_per_event``.
    """
    tables = [it.tracer.table() for it in traced]

    def med(layer: str, key: str) -> float:
        return statistics.median(t[layer][key] for t in tables)

    out = dict(traced[0].layers)
    out.update({metric: med(layer, "self_s") for metric, layer in _SELF.items()})
    out.update({metric: med(layer, "calls") for metric, layer in _CALLS.items()})
    planner = traced[0].tracer.layers["planner"]  # plans are deterministic per seed
    out["planner.coalesce_ratio"] = planner.requests / planner.reads if planner.reads else 0.0
    out["storage.packed_bytes"] = traced[0].tracer.layers["storage.pack"].nbytes
    events = statistics.median(it.tracer.measured_events for it in traced)
    out["sim.events"] = events
    out["sim.us_per_event"] = untraced_run_s * 1e6 / events if events else 0.0
    out["trace.overhead_s"] = statistics.median(it.run_s for it in traced) - untraced_run_s
    return {name: out[name] for name in PER_LAYER}


def self_time_table(traced: list) -> str:
    """Calls, inclusive and self host seconds per layer (medians)."""
    tables = [it.tracer.table() for it in traced]
    lines = [
        "self-time table (host seconds, median of traced iterations):",
        f"  {'layer':<22} {'calls':>10} {'incl':>10} {'self':>10}",
    ]
    for layer in tables[0]:
        calls, incl, own = (
            statistics.median(t[layer][key] for t in tables)
            for key in ("calls", "incl_s", "self_s")
        )
        lines.append(f"  {layer:<22} {calls:>10.0f} {incl:>10.4f} {own:>10.4f}")
    return "\n".join(lines)
