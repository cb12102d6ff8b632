"""Smoke test of the benchmark: every workload at its smallest size, oracle on.

Run from the repository root:

    python -m pytest -q benchmarks/test_smoke.py

It lies outside the test suite's ``testpaths``, so the unit tests keep
their running time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_as_declared(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 1

    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    printed = {}
    for line in lines[:-1]:
        name, _, rest = line.partition(" ")
        if name in declared:
            printed[name] = rest.split()[-1]
    assert printed == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    if trace:
        value = {name: m["value"] for name, m in result["metrics"].items()}
        assert (value["linalg.herm_eig.calls"] > 0) == (workload == "queries")
        assert (value["scans.emit_svg.calls"] > 0) == (workload == "region_scan")
        assert value["cli.main.calls"] > 0
        assert value["bayes.decisions"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, WORKLOADS[0], 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
