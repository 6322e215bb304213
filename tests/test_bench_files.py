"""The committed benchmark records.  Each ``BENCH_*.json`` at the root of
the repository parses, and for every workload that ``BENCHMARK.json``
names it holds at least one parent run and one change run, each the last
line ``bench/run.py --trace 0`` printed: ``correct`` and every end-to-end
metric."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_holds_both_sides_of_every_workload(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {metric["name"] for metric in spec["end_to_end"]}
    runs = json.loads(path.read_text())["runs"]
    for workload in (w["name"] for w in spec["workloads"]):
        for side in ("parent", "change"):
            lines = [run["line"] for run in runs
                     if run["workload"] == workload and run["side"] == side]
            assert lines, f"{path.name} has no {side} run of {workload}"
            for line in lines:
                assert "correct" in line
                assert metrics <= set(line["metrics"]), (workload, side)
