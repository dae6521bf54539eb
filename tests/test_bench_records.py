"""The committed speed records: every BENCH_<workload>.json at the repository
root holds the perfbench result line of each run behind a speed claim, on
both sides of the comparison, with the run's seed and git rev."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_is_complete(path):
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    record = json.loads(path.read_text())
    assert record["workload"] in workloads
    assert path.name == f"BENCH_{record['workload']}.json"
    runs = record["runs"]
    seeds = {side: {r["seed"] for r in runs if r["side"] == side} for side in ("parent", "change")}
    assert seeds["parent"] and seeds["parent"] <= seeds["change"]
    for run in runs:
        assert run["side"] in ("parent", "change")
        assert isinstance(run["seed"], int) and len(run["rev"]) == 40
        assert run["result"]["correct"] is True and run["result"]["failed"] == 0
