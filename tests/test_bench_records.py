"""Committed benchmark records (``BENCH_*.json`` at the repository root).

Each record holds the result lines of ``perfbench/run.py`` for a change
and for its parent commit, run interleaved.  A record may name only the
workloads and end-to-end metrics that ``BENCHMARK.json`` declares, and
needs at least three runs per side to give a median.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
MIN_RUNS = 3


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return workloads, units


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record(path):
    record = json.loads(path.read_text())
    workloads, units = declared()
    assert isinstance(record["seed"], int)
    assert record["parent"]["commit"]
    assert record["workloads"]
    for name, sides in record["workloads"].items():
        assert name in workloads
        runs = sides["runs"]
        assert runs >= MIN_RUNS
        for side in ("parent", "change"):
            results = sides[side]
            assert len(results) == runs
            for result in results:
                assert set(result["metrics"]) <= set(units)
                for metric, value in result["metrics"].items():
                    assert value["unit"] == units[metric]
                    assert value["value"] > 0
