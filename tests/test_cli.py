"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import ABLATIONS, BENCHES, EXPERIMENTS, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig4", "table2", "fig13", "ablation-nvme"):
        assert name in out


def test_machines_command(capsys):
    assert main(["machines"]) == 0
    out = capsys.readouterr().out
    assert "summit" in out and "perlmutter" in out
    assert "1.6 TB/node" in out  # Summit burst buffer
    assert "none" in out  # Perlmutter has no node-local NVMe


def test_datasets_command(capsys):
    assert main(["datasets", "--samples", "5"]) == 0
    out = capsys.readouterr().out
    assert "Ising" in out and "AISD" in out


def test_run_unknown_experiment(capsys):
    assert main(["bench", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_single_experiment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
    assert main(["bench", "table1"]) == 0
    assert os.path.exists(tmp_path / "table1.txt")
    assert "Table 1" in capsys.readouterr().out


def test_run_spelling_is_gone(capsys):
    with pytest.raises(SystemExit):
        main(["run", "table1"])
    assert "invalid choice" in capsys.readouterr().err


def test_experiment_registry_complete():
    # Every paper table/figure is runnable from the CLI.
    for key in ("table1", "table2", "table3") + tuple(f"fig{i}" for i in range(4, 14)):
        assert key in EXPERIMENTS


def test_bench_and_ablation_registries_split_the_union():
    assert set(EXPERIMENTS) == set(BENCHES) | set(ABLATIONS)
    assert not set(BENCHES) & set(ABLATIONS)
    assert "ablation-serving" in ABLATIONS and "ablation-serving" not in BENCHES


def test_bench_subcommand_rejects_ablation_names(capsys):
    # The split registries are enforced: ablations are not benches.
    assert main(["bench", "ablation-serving"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_bench_subcommand_runs_a_table(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
    assert main(["bench", "table1"]) == 0
    assert os.path.exists(tmp_path / "table1.txt")


def test_ablation_short_names_resolve(capsys):
    # `ablation serving` resolves to `ablation-serving` — the unknown-name
    # path proves resolution happens before rejection.
    assert main(["ablation", "not-an-ablation"]) == 2
    err = capsys.readouterr().err
    assert "ablation-serving" in err  # listed as available


def test_bench_spelling_prints_no_deprecation(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
    assert main(["bench", "table1"]) == 0
    assert "[deprecated]" not in capsys.readouterr().err


def test_ls_alias_for_list(capsys):
    assert main(["ls"]) == 0
    out = capsys.readouterr().out
    assert "ablation-serving" in out
