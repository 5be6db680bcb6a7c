"""Self-tests of the benchmark: metrics, output checks, determinism, tracing."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import metrics, run, speed, workloads
from perfbench.hooks import Patcher
from perfbench.speed import REFERENCE_S, SpeedProbe
from perfbench.trace import HostTracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAMES = sorted(workloads.WORKLOADS)


def _result(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", NAMES)
def test_tiny_workload_emits_every_metric_with_unit(name, capsys, tmp_path, monkeypatch):
    base = ["--workload", name, "--seed", "3", "--seconds", "0", "--tiny"]
    lines, res = _result(capsys, base + ["--trace", "0"])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        k: unit for k, unit in metrics.E2E.items()
    }
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert any("(n=" in line for line in lines)  # percentiles carry their sample count

    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    lines, res = _result(capsys, base + ["--trace", "1"])
    assert res["correct"], lines
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        k: unit for k, unit in metrics.PER_LAYER.items()
    }
    assert any(line.startswith("self-time table") for line in lines)
    spans = json.loads((tmp_path / f"trace-{name}-seed3.json").read_text())
    assert spans["spans"] and spans["span_fields"][1] == "layer"


def _corrupt_first_delivery(patcher):
    """Flip one byte of the first payload delivered: the first wire payload
    of the row path, and the first batch assembled in an arena."""
    state = {"wire": False, "arena": False}

    def wire(fn):
        def fetch(transport, reads, *args, **kwargs):
            outcome = yield from fn(transport, reads, *args, **kwargs)
            for i, payload in enumerate(outcome.payloads):
                if not state["wire"] and payload is not None and payload.size:
                    bad = payload.copy()
                    bad[-1] ^= 0xFF
                    outcome.payloads[i] = bad
                    state["wire"] = True
            return outcome

        return fetch

    def arena(fn):
        def get_batch_arena(store, indices, arena, n_workers=1):
            lat = yield from fn(store, indices, arena, n_workers=n_workers)
            if not state["arena"]:
                arena.field_bytes["node_features"][0] ^= 0xFF
                state["arena"] = True
            return lat

        return get_batch_arena

    patcher.wrap("repro.dataplane.transport:RmaTransport.fetch", wire)
    patcher.wrap("repro.core.store:DDStore.get_batch_arena", arena)


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_payload_trips_output_check(name):
    clean = workloads.iterate(name, 5, tiny=True, check=True)
    assert clean.failed == 0 and not clean.problems and clean.probed > 0
    with Patcher() as patcher:  # beneath the probe's own wrappers
        _corrupt_first_delivery(patcher)
        bad = workloads.iterate(name, 5, tiny=True, check=True)
    assert bad.failed >= 1
    assert any("differ from the reference" in p for p in bad.problems)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_reruns_are_bit_identical(name):
    a = workloads.iterate(name, 11, tiny=True, check=True)  # the probe leaves results alone
    b = workloads.iterate(name, 11, tiny=True)
    other = workloads.iterate(name, 12, tiny=True)
    assert a.fingerprint == b.fingerprint
    assert a.virtual == b.virtual and a.layers == b.layers
    assert a.fingerprint != other.fingerprint


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_matches_untraced_and_self_never_exceeds_inclusive(name):
    untraced = workloads.iterate(name, 2, tiny=True)
    traced = workloads.iterate(name, 2, tiny=True, tracer=HostTracer())
    assert not traced.problems  # includes the critical-path invariant on training
    assert traced.fingerprint == untraced.fingerprint  # tracing leaves virtual time alone
    for layer, row in traced.tracer.table().items():
        assert 0.0 <= row["self_s"] <= row["incl_s"] + 1e-9, layer
    for span in traced.tracer.spans:
        busy, own = span[5], span[6]
        assert -1e-9 <= own <= busy + 1e-9, span
        assert span[4] >= span[3]


def test_speed_probe_scales_the_run_to_the_reference_speed(monkeypatch):
    monkeypatch.setattr(speed, "INTERVAL_S", 60.0)
    probe = SpeedProbe()
    probe.tick()
    probe.tick()  # within INTERVAL_S of the first: no slice
    assert probe.slices == 1 and probe.seconds > 0
    probe.seconds, probe.slices = 20 * REFERENCE_S, 10  # a host at half the reference speed
    assert probe.factor() == pytest.approx(0.5)
    assert probe.normalise(1.0 + probe.seconds) == pytest.approx(0.5)


@pytest.mark.parametrize("name", NAMES)
def test_speed_slices_run_in_set_up_and_in_the_measured_run(name):
    it = workloads.iterate(name, 4, tiny=True)
    assert 0 < it.setup_s != it.raw_setup_s  # equal only when no slice ran
    assert 0 < it.run_s != it.raw_run_s


def test_patches_are_removed_after_an_iteration():
    from repro.core.store import DDStore
    from repro.storage.formats import SampleStats

    before = DDStore.get_samples, vars(SampleStats)["from_blob"]
    workloads.iterate("serve-mixed", 1, tiny=True, tracer=HostTracer(), check=True)
    assert (DDStore.get_samples, vars(SampleStats)["from_blob"]) == before


def test_benchmark_json_workloads_and_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_probe_digests_match_reference_for_arena_and_rows():
    from repro.bench.harness import packed_blobs
    from repro.graphs import BatchArena
    from repro.storage import unpack_graph

    from perfbench.check import arena_digests, graph_digest

    blobs = packed_blobs("ising", 0, 3)
    graphs = [unpack_graph(b) for b in blobs]
    arena = BatchArena()
    nn = np.array([g.n_nodes for g in graphs])
    ne = np.array([g.n_edges for g in graphs])
    arena.reset(nn, ne, graphs[0].feature_dim, graphs[0].output_dim, np.arange(3))
    for i, g in enumerate(graphs):
        n0, e0 = arena.ptr[i], arena.edge_ptr[i]
        arena.positions[n0:n0 + g.n_nodes] = g.positions
        arena.node_features[n0:n0 + g.n_nodes] = g.node_features
        arena.edge_index[:, e0:e0 + g.n_edges] = g.edge_index
        arena.y[i] = g.y
    assert arena_digests(arena, 3) == [graph_digest(g) for g in graphs]
