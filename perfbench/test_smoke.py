"""Smoke test of the benchmark itself: the fixed frame prefix of each workload.

`--seconds 0` runs exactly the frames whose outputs and counts are hashed
(8 trials, or one pass over the 16 pipeline scenes).

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = run("--workload", workload, "--seed", "0", "--seconds", "0",
               "--trace", str(trace))
    _, result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [w["name"] for w in wanted]
    for w in wanted:
        m = result["metrics"][w["name"]]
        assert m["unit"] == w["unit"], w["name"]
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if not trace:
        assert all(result["metrics"][w["name"]]["value"] > 0 for w in wanted)


def _digests(lines):
    return {
        line.split(":")[0].strip(): line.split(":")[1].strip()
        for line in lines
        if line.strip().startswith("digest ")
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_and_outputs_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "1")
    first_lines, first = result_of(run(*args))
    second_lines, second = result_of(run(*args))
    d1, d2 = _digests(first_lines), _digests(second_lines)
    assert d1 == d2
    assert d1["digest outputs"] == d1["digest traced_outputs"]
    for name, m in first["metrics"].items():
        if m["unit"] in ("count", "bytes"):
            assert m["value"] == second["metrics"][name]["value"], name


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "trial_plain", "--seed", "0", "--seconds", "1",
               "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
