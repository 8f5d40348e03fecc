"""Every workload at a tiny shape emits every metric BENCHMARK.json names.

Run with `python -m pytest -q perfbench`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
STAGES = {
    "train-pred-expl": {"train.examples_per_s"},
    "infer-explain": {"eval.labels_per_s", "eval.tokens_per_s",
                      "generate.examples_per_s", "etp.examples_per_s"},
    "corpus-quality": {"filter.explanations_per_s", "bleu.segments_per_s"},
}


def _expected(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload):
    result = run.run(workload, seed=1, seconds=0.01, trace=False, shape="tiny")
    assert result["correct"], (result["checks"], result["errors"])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _expected("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(result["stages"]) == STAGES[workload] | {
        "items_per_s.raw", "setup_s.raw", "machine.slowdown"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics(workload):
    result = run.run(workload, seed=1, seconds=0.01, trace=True, shape="tiny")
    assert result["correct"], (result["checks"], result["errors"])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _expected("per_layer")
    assert result["spans"]


def test_command_prints_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-quality",
         "--seed", "2", "--seconds", "0.01", "--trace", "0", "--shape", "tiny"],
        cwd=REPO, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    for name in list(_expected("end_to_end")) + sorted(STAGES["corpus-quality"]) + ["failed_frac"]:
        assert any(line.startswith(name + " ") for line in proc.stdout.splitlines()), name


def test_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-pred-expl",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
