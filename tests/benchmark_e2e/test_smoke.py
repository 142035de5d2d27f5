"""Every benchmark workload still runs against the current program.

Each workload runs at a tiny size for a fraction of a second, untraced and
traced, so a change to a public API the benchmark calls fails here rather
than in a full benchmark run. The emitted metric names and units must be
exactly the ones BENCHMARK.json declares.
"""

import json
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

import run  # noqa: E402
import workloads  # noqa: E402

pytestmark = pytest.mark.columnar

#: Sizes small enough that one workload runs in about a second.
TINY = {
    "campaign": {"volume": 0.05},
    "analyze": {"bundles": 300},
    "ingest": {"base": 300, "batch": 50},
    "serve": {"bundles": 300},
}


def declared(section: str) -> set[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {(entry["name"], entry["unit"]) for entry in spec[section]}


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [entry["name"] for entry in spec["workloads"]] == list(TINY)
    assert list(run.WORKLOADS) == list(TINY)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(TINY))
def test_workload_runs_and_reports_declared_metrics(name, trace, monkeypatch):
    # A couple of rounds exercise every code path; the full counts only
    # steady the measurements.
    monkeypatch.setattr(run, "MEMORY_ROUNDS", 2)
    monkeypatch.setattr(workloads.WORKLOADS[name], "traced_rounds", 1)
    record, metrics = run.measure(name, 2025, 0.2, trace, **TINY[name])
    timer = record["timer"]
    assert timer.attempted > 0
    assert timer.failed == 0, timer.errors
    emitted = {(metric, unit) for metric, (_value, unit) in metrics.items()}
    assert emitted == declared("per_layer" if trace else "end_to_end")
