"""Smoke tests of the benchmark itself, on tiny sizes of every workload."""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import bench
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = {
    "hidden_dim": 8,
    "embed_dim": 4,
    "batch_size": 8,
    "n_train": 24,
    "n_eval": 16,
    "graph_every": 2,
    "checkpoint_every": 3,
    "quality_step": 4,
}


def tiny(workload: str) -> dict:
    return {**run.load_settings(workload), **TINY}


def emitted(result, kind: str) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.report(result.metrics, SPEC[kind])
    return buf.getvalue()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_emitted_and_quality_repeats(workload):
    first = bench.run(tiny(workload), 7, 0.05, False, 0.0)
    again = bench.run(tiny(workload), 7, 0.05, False, 0.0)
    assert first.ledger.failed == 0, first.ledger.problems
    text = emitted(first, "end_to_end").splitlines()
    assert len(text) == len(SPEC["end_to_end"])
    for m, line in zip(SPEC["end_to_end"], text):
        assert line.split()[0] == m["name"]
        assert f" {m['unit']} " in line and f"({m['better']} is better)" in line
        assert first.metrics[m["name"]] > 0
    assert first.unbounded.keys() == bench.UNBOUNDED.keys()
    for name in ("eval_loss_final", "graph_accuracy_final", "hidden_recovery_final"):
        assert first.unbounded[name] == again.unbounded[name]
    assert first.provenance["digest"] == again.provenance["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_and_matches_untraced(workload):
    result = bench.run(tiny(workload), 7, 0.05, True, 0.0)
    # The last check is the traced-versus-untraced comparison.
    assert result.ledger.failed == 0, result.ledger.problems
    text = emitted(result, "per_layer")
    assert len(text.splitlines()) == len(SPEC["per_layer"])


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1"]
    done = subprocess.run(cmd + ["--seconds", "1"], cwd=tmp_path, capture_output=True, timeout=60)
    assert done.returncode != 0 and done.stdout == b""
