"""Wall time and peak memory of the paper run, one fresh process per run.

    python benchmarks/bench_paper.py [--days 120] [--runs 2] \
        [--out benchmarks/output/BENCH_PAPER.json]

Each run is a child process that runs
``MeasurementCampaign(paper_scenario(seed=SEED, days=DAYS)).run()``: the
simulation and collection of the paper's measurement window, with no
analysis. A fresh process per run keeps one run's heap and process-wide
caches out of the next, so every run pays what a user's run pays. The
e2e ``campaign`` workload cannot stand in for this: it repeats small
scenarios in one process, with its caches warm.

Each run records:

- ``wall_seconds``: building and running the campaign (interpreter start
  and imports excluded);
- ``peak_rss_mb``: the child's ``ru_maxrss``;
- ``seconds_per_day_by_quarter``: the median wall seconds of one simulated
  day in each quarter of the run (``null`` for a quarter with no day,
  which only a run of fewer than four days has), so growth with the
  ledger shows;
- ``ledger_transactions`` and ``bundles_landed``.

Days are timed from outside the program, by wrapping
``SimulationEngine.run_day`` in the child, as ``benchmarks/e2e/tracing.py``
wraps public functions. The record (``"schema": "bench-paper/1"``) is
read by :func:`benchmarks.perf_schema.load_bench_record`. This is a
standalone script: it has no ``test_`` functions, so pytest collects
nothing from it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DEFAULT_OUT = ROOT / "benchmarks" / "output" / "BENCH_PAPER.json"
SEED = 2025


def _quarter_medians(day_seconds: list[float]) -> list[float | None]:
    """Median seconds per day in each quarter of the run, in day order."""
    quarters: list[list[float]] = [[], [], [], []]
    for day, seconds in enumerate(day_seconds):
        quarters[day * 4 // len(day_seconds)].append(seconds)
    return [
        round(statistics.median(q), 4) if q else None for q in quarters
    ]


def measure_once(days: int) -> dict:
    """Run the campaign in this process and return its record."""
    sys.path.insert(0, str(SRC))
    from repro import MeasurementCampaign, paper_scenario
    from repro.simulation.engine import SimulationEngine

    day_seconds: list[float] = []
    original = SimulationEngine.run_day

    def timed_run_day(self, day):
        started = time.perf_counter()
        try:
            return original(self, day)
        finally:
            day_seconds.append(time.perf_counter() - started)

    SimulationEngine.run_day = timed_run_day
    try:
        started = time.perf_counter()
        scenario = paper_scenario(seed=SEED, days=days)
        result = MeasurementCampaign(scenario).run()
        wall = time.perf_counter() - started
    finally:
        SimulationEngine.run_day = original
    # ru_maxrss is in KiB on Linux.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_seconds": round(wall, 3),
        "peak_rss_mb": round(peak_kib / 1024, 1),
        "seconds_per_day_by_quarter": _quarter_medians(day_seconds),
        "ledger_transactions": result.world.ledger.transaction_count(),
        "bundles_landed": result.world.block_engine.stats.bundles_landed,
    }


def _run_child(days: int) -> dict:
    completed = subprocess.run(
        [sys.executable, __file__, "--child", "--days", str(days)],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--days", type=int, default=120)
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--child",
        action="store_true",
        help="run one measurement in this process and print its record "
        "as one JSON line (what each run's child process does)",
    )
    args = parser.parse_args(argv)
    if args.days < 1 or args.runs < 1:
        parser.error("--days and --runs must be at least 1")
    if args.child:
        print(json.dumps(measure_once(args.days)))
        return 0

    # Run as a script, so benchmarks/ is sys.path[0]; importing this at
    # module level would break collection under ``pytest benchmarks/``.
    from perf_schema import SCHEMA_PAPER

    runs = []
    for index in range(args.runs):
        record = _run_child(args.days)
        print(
            f"run {index + 1}/{args.runs}: {record['wall_seconds']:.1f} s, "
            f"peak {record['peak_rss_mb']:.1f} MB, "
            f"{record['ledger_transactions']} transactions",
            file=sys.stderr,
        )
        runs.append(record)
    payload = {
        "schema": SCHEMA_PAPER,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "seed": SEED,
        "days": args.days,
        "runs": runs,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
