"""Smoke tests of the benchmark: each workload at a tiny n prints every
metric by name with its unit, and its checks pass.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_the_benchmark_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_prints_every_metric_with_its_unit(name, trace):
    record = run.run_benchmark(WORKLOADS[name], seed=3, seconds=0, trace=trace, smoke=True)
    text = "\n".join(run.report_lines(record))
    expected = PER_LAYER if trace else run.END_TO_END + (("failed_frac", "ratio"),)
    for metric, unit, *_ in expected:
        assert any(metric in line and f" {unit}" in line for line in text.splitlines()), metric
    line = run.result(record)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    section = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[section]
    }
    assert line["attempted"] >= 1
    assert record["correct"], record["problems"]


def test_refuses_to_run_without_the_sources(tmp_path):
    ignore = shutil.ignore_patterns("runs", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hard-edge", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
