"""Smoke self-test of the benchmark.

Run from the repository root with ``python -m pytest perfbench``.  Each
workload runs at minimal size (``--smoke``) and must print every metric
``BENCHMARK.json`` names, with its unit; the output check must reject a
perturbed reference; and without the program's sources the benchmark must
fail without printing a result.
"""

from __future__ import annotations

import copy
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

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_bench(tmp_path, workload, trace, seed=workloads.REFERENCE_SEED):
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
            "--smoke", "--out", str(tmp_path),
        ],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(tmp_path, workload, trace):
    line, stderr = run_bench(tmp_path, workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"], stderr
    assert line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def test_other_seed_checks_invariants(tmp_path):
    line, stderr = run_bench(tmp_path, "table3-serial", 0, seed=7)
    assert line["correct"], stderr


def test_output_check_fails_on_perturbed_reference(tmp_path):
    reference = workloads.load_reference()
    seed = workloads.REFERENCE_SEED
    campaign = workloads.Table3Serial(seed, n_per_app=2, reference=reference)
    campaign.prepare()
    assert campaign.run_round(0, tmp_path).failed == 0
    campaign.reference = copy.deepcopy(reference)
    campaign.reference["table3-serial"]["pennant/LetGo-E"][1][5] += 1  # steps
    assert campaign.run_round(1, tmp_path).failed == 1

    cr = workloads.CRInvivo(seed, reference=reference, runs=1)
    cr.prepare()
    assert cr.run_round(0, tmp_path).failed == 0
    cr.reference = copy.deepcopy(reference)
    cr.reference["cr-invivo"][0][2][6] *= 1.5  # pennant/cr+letgo efficiency
    assert cr.run_round(0, tmp_path).failed == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    done = subprocess.run(
        SPEC["command"]
        + ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
