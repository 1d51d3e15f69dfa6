"""Every `BENCH_*.json` at the repository root follows ROADMAP item 1's schema.

A trajectory file is one JSON object: the measured commit and its parent as
40 hex characters, the Python version, the machine, the `bench/run.py`
command, and under `runs` (and, optionally, `parent_runs`) each workload's
parsed result lines, whose metrics are `BENCHMARK.json`'s end-to-end ones.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"] for workload in SPEC["workloads"]}
UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
SHA = re.compile("[0-9a-f]{40}")


def assert_result_line(run):
    assert set(run) == {"correct", "attempted", "failed", "metrics"}
    assert type(run["correct"]) is bool
    assert type(run["attempted"]) is int and type(run["failed"]) is int
    assert run["correct"] == (run["failed"] == 0) and 0 <= run["failed"] <= run["attempted"]
    assert {name: metric["unit"] for name, metric in run["metrics"].items()} == UNITS
    for metric in run["metrics"].values():
        assert set(metric) == {"value", "unit"} and type(metric["value"]) in (int, float)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_trajectory_file_follows_the_schema(path):
    data = json.loads(path.read_text())
    assert set(data) - {"parent_runs"} == {"commit", "parent", "python", "machine", "command", "runs"}
    assert SHA.fullmatch(data["commit"]) and SHA.fullmatch(data["parent"])
    short = path.name[len("BENCH_") : -len(".json")]
    assert len(short) >= 7 and data["commit"].startswith(short)
    for key in ("python", "machine", "command"):
        assert type(data[key]) is str and data[key]
    for key in ("runs", "parent_runs"):
        for workload, runs in data.get(key, {}).items():
            assert workload in WORKLOADS and runs
            for run in runs:
                assert_result_line(run)
