"""Smoke test of the benchmark: each workload at minimal size.

Asserts that the checks pass and that every metric ``BENCHMARK.json``
names is printed with its unit, traced and untraced, and that the
command's last line is the result object every run ends with.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench.harness import main, run_benchmark
from perfbench.report import metric_lines, to_md

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _minimal(workload: str) -> dict:
    return {"steps_per_episode": 2} if workload.startswith("train") else {}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    result = run_benchmark(workload, seed=0, seconds=0.05, trace=trace,
                           **_minimal(workload))
    assert result["correct"], result["checks"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    lines = metric_lines(result)
    markdown = to_md(result)
    for metric in BENCHMARK["per_layer" if trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines), name
        assert f"| {name} |" in markdown and f"| {unit} |" in markdown


def test_command_prints_result_object_last(tmp_path, capsys):
    assert main(["--workload", "serve-zipf-vector", "--seed", "3",
                 "--seconds", "0.05", "--trace", "0",
                 "--results-dir", str(tmp_path)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(last["metrics"])
    assert (tmp_path / "serve-zipf-vector-seed3-trace0.json").exists()
