"""Small-size runs of every workload, and the benchmark's outer contract.

Run with `python -m pytest benchmark/tests` from the repository root.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # conftest puts the benchmark modules on the path
import spans
import workloads
from conftest import SMALL

HERE = Path(__file__).resolve().parent.parent
NAMES = ("wide", "seeds", "killer")


@pytest.mark.parametrize("name", NAMES)
def test_small_run_passes_its_checks_and_reports_every_metric(name, small_run):
    out = small_run(name, 3)
    assert out.checks.attempted > 0 and out.checks.failed == 0, out.checks.notes
    metrics = workloads.end_to_end(out)
    assert all(value > 0 for value in metrics.values()), metrics
    assert out.emit_bytes if name != "wide" else not out.emit_bytes


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_spans_account_for_the_timed_wall(name, small_run):
    tracer = spans.Tracer()
    out = small_run(name, 3, tracer)
    assert out.checks.failed == 0, out.checks.notes
    metrics = workloads.per_layer(tracer, out)
    assert metrics["learners.play.calls"] > 0 and metrics["learners.update.calls"] > 0
    assert 0.9 < metrics["trace.self_share"] <= 1.0 + 1e-9
    if name == "killer":
        assert metrics["oracles.best_fixed_subset.calls"] == SMALL[name].n_seeds
        assert metrics["adversaries.KillerSource.costs_for.calls"] > 0
    if name == "wide":
        assert metrics["oracles.best_fixed_subset.calls"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_repeats_mean_loss_and_another_seed_passes(name, small_run):
    first, again, other = small_run(name, 7), small_run(name, 7), small_run(name, 8)
    assert first.mean_loss == again.mean_loss
    assert other.checks.failed == 0 and other.mean_loss != first.mean_loss


def test_benchmark_json_declares_exactly_the_reported_metrics(small_run):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = spans.Tracer()
    out = small_run("seeds", 3, tracer)
    assert [m["name"] for m in spec["per_layer"]] == list(workloads.per_layer(tracer, out))
    end_to_end = set(workloads.end_to_end(out)) | {"setup_s", "pass_share"}
    assert {m["name"] for m in spec["end_to_end"]} == end_to_end
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "seeds", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
