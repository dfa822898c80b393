"""Smoke test of the benchmark at toy size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload, untraced and traced, emits every metric named
in BENCHMARK.json with its unit, that every correctness gate executes, and
that the runner refuses to run without the linkgae sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TRAIN_GATES = {"loss_finite", "hits_floor", "determinism", "score_edges_forward",
               "heuristic_reference"}
GATES = {"train-masked": TRAIN_GATES, "train-raw": TRAIN_GATES,
         "eval-rank": {"score_edges_forward", "heuristic_reference", "per_source_mrr",
                       "determinism"}}


def run(workload: str, trace: int, script: Path = HERE / "run.py",
        cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_and_gate(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
        if not trace:
            assert m["value"] > 0, name
    for name in expected:  # the human-readable table names every metric too
        assert any(line.split()[:1] == [name] for line in lines), name

    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    gates = record["gates"]
    assert set(gates) == GATES[workload]
    assert all(g["checked"] > 0 for g in gates.values())
    for key in ("nproc", "cpu_model", "numpy", "scipy", "blas", "blas_threads",
                "python", "git_sha", "seed"):
        assert key in record["provenance"], key


def test_metric_lists_match_the_code():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import bench
    import spans
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == spans.PER_LAYER
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert WORKLOADS == list(bench.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 0, script=tmp_path / HERE.name / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
