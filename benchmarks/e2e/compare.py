"""Compare two sets of benchmark runs under BENCHMARK.json's bounds.

    python3 benchmarks/e2e/compare.py parent.jsonl change.jsonl

Each file holds the records ``run.py --out`` appends, one per run. For
every end-to-end metric and workload present in both files, one row says
whether the change is ``better``, ``worse``, ``unchanged`` or
``unresolved``:

- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound.
- ``unresolved``: either side's run-to-run spread (interquartile range
  over median) is wider than the bound, unless every change run beats
  every parent run.
- ``better``: at least ten runs a side, the change wins at least nine
  tenths of the pairs (runs taken in file order, ties counting for
  neither), and the medians differ by more than the parent's interquartile
  range.
- ``unchanged``: none of the above.

A ``failed`` row per workload compares the share of failed operations and
checks over all its records: any increase is ``worse``. A gain does not
count while the change fails more than the parent, so that workload's
``better`` rows read ``void`` instead.

Traced records (``--trace 1``) are not compared; their tracing overhead is
printed per workload instead, with the number of traced runs and their
range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def values(records: list[dict], workload: str, metric: str) -> list[float]:
    return [
        record["metrics"][metric]["value"]
        for record in records
        if record["workload"] == workload
        and not record["trace"]
        and metric in record["metrics"]
    ]


def spread(samples: list[float]) -> float:
    """Interquartile range over median (0 for a single sample)."""
    if len(samples) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def verdict(
    parent: list[float], change: list[float], lower_is_better: bool,
    bound: float,
) -> tuple[str, float]:
    """One row's verdict and the change's relative median movement."""
    sign = 1 if lower_is_better else -1
    median_parent = statistics.median(parent)
    moved = (statistics.median(change) - median_parent) / median_parent
    worse_by = sign * moved

    def beats(new: float, old: float) -> bool:
        return sign * (old - new) > 0

    if max(spread(parent), spread(change)) > bound:
        if all(beats(new, old) for new in change for old in parent):
            return "better", moved
        return "unresolved", moved
    if worse_by > bound:
        return "worse", moved
    pairs = list(zip(parent, change))
    wins = sum(beats(new, old) for old, new in pairs)
    parent_iqr = spread(parent) * median_parent
    if (
        len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and abs(moved * median_parent) > parent_iqr
    ):
        return "better", moved
    return "unchanged", moved


def failures(records: list[dict], workload: str) -> tuple[int, int]:
    """Failed and attempted operations and checks over a workload's runs."""
    chosen = [record for record in records if record["workload"] == workload]
    return (
        sum(record["failed"] for record in chosen),
        sum(record["attempted"] for record in chosen),
    )


def compare(parent: list[dict], change: list[dict]) -> list[str]:
    spec = json.loads(SPEC.read_text())
    workloads = [entry["name"] for entry in spec["workloads"]]
    rows = [
        f"{'workload':<10} {'metric':<18} {'parent':>12} {'change':>12} "
        f"{'moved':>8} {'bound':>6}  verdict"
    ]
    for workload in workloads:
        failed_before, attempted_before = failures(parent, workload)
        failed_after, attempted_after = failures(change, workload)
        if not attempted_before or not attempted_after:
            continue
        share_before = failed_before / attempted_before
        share_after = failed_after / attempted_after
        fails_more = share_after > share_before
        rows.append(
            f"{workload:<10} {'failed':<18} "
            f"{f'{failed_before}/{attempted_before}':>12} "
            f"{f'{failed_after}/{attempted_after}':>12} "
            f"{'':>8} {'0':>5}%  "
            + (
                "worse" if fails_more
                else "better" if share_after < share_before
                else "unchanged"
            )
        )
        for entry in spec["end_to_end"]:
            before = values(parent, workload, entry["name"])
            after = values(change, workload, entry["name"])
            if not before or not after:
                continue
            label, moved = verdict(
                before, after, entry["better"] == "lower", entry["bound"]
            )
            if label == "better" and fails_more:
                label = "void"
            rows.append(
                f"{workload:<10} {entry['name']:<18} "
                f"{statistics.median(before):>12.4g} "
                f"{statistics.median(after):>12.4g} "
                f"{moved * 100:>+7.1f}% {entry['bound'] * 100:>5.0f}%  "
                f"{label} (n={len(before)}/{len(after)})"
            )
    for name, records in (("parent", parent), ("change", change)):
        for workload in workloads:
            overhead = [
                record["metrics"]["trace_overhead_pct"]["value"]
                for record in records
                if record["workload"] == workload and record["trace"]
            ]
            if overhead:
                rows.append(
                    f"trace overhead, {name} {workload}: "
                    f"{statistics.median(overhead):+.1f}% (median of "
                    f"{len(overhead)} traced runs, range "
                    f"{min(overhead):+.1f}% to {max(overhead):+.1f}%)"
                )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="records of the parent commit")
    parser.add_argument("change", help="records of the change")
    args = parser.parse_args(argv)
    print("\n".join(compare(load(args.parent), load(args.change))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
