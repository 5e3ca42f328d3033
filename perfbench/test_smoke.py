"""Smoke test of the benchmark: short runs print every declared metric.

Run from the repository root (about a minute):

    python3 -m pytest -q perfbench/test_smoke.py

It is not part of the tier-1 suite, which collects ``tests/`` only.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# counts that do not depend on the clock and must repeat for one seed
EXACT = ("quadrature.calls", "quadrature.evaluations", "functions.eval.points",
         "functions.pair.calls")


def _run(workload, trace, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return out, out.stdout.splitlines()


def _result(workload, trace):
    out, lines = _run(workload, trace)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("failed_share") for line in lines)
    return result, lines


def _assert_declared(result, lines, section):
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and (" %s " % unit) in line for line in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(workload):
    result, lines = _result(workload, 0)
    _assert_declared(result, lines, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_printed_and_counts_exact(workload):
    first, lines = _result(workload, 1)
    second, _ = _result(workload, 1)
    _assert_declared(first, lines, "per_layer")
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["quadrature.calls"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out, lines = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in lines)
