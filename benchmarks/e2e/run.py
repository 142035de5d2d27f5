"""Run one benchmark workload and print its metrics.

    python3 benchmarks/e2e/run.py --workload analyze --seed 2025 \
        --seconds 15 --trace 0 [--out results.jsonl]

``--workload all``, the default, runs every workload, each in its own
process. The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

holding the end-to-end metrics (``--trace 0``) or the per-layer ones
(``--trace 1``), each as ``{"value": ..., "unit": ...}``. A human-readable
summary, with sample counts, goes to standard error. The exit code is 0
only when every operation and check succeeded.

The program is imported from ``src/`` beside this directory; a checkout
without it is refused with exit code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Rounds every run completes. ``peak_rss_mb`` covers the set-ups and
#: these rounds only: the program's bounded process-wide caches (built
#: bundle views, for one) fill over the first few dozen rounds, and how
#: many rounds fit in a run depends on the host's speed.
MEMORY_ROUNDS = 8

WORKLOADS = ("campaign", "analyze", "ingest", "serve")


#: Rows the calibration inserts, and its best-of-three time that defines
#: reference speed (on a shared 2-vCPU virtual machine it took 10.7 ms in
#: fast phases and up to 26 ms in slow ones).
CALIBRATION_ROWS = 4_000
REFERENCE_SECONDS = 0.012


def _calibration_work() -> None:
    database = sqlite3.connect(":memory:")
    database.execute(
        "CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT, c INTEGER)"
    )
    database.executemany(
        "INSERT INTO t VALUES (?, ?, ?)",
        (
            (row, f"k{row * 7919 % 5003}", row * 31 % 97)
            for row in range(CALIBRATION_ROWS)
        ),
    )
    database.execute("CREATE INDEX t_b ON t (b)")
    database.execute(
        "SELECT b, SUM(c) FROM t GROUP BY b ORDER BY 2 DESC"
    ).fetchall()
    database.close()


def calibrate() -> float:
    """Best of three timings of a fixed in-memory SQLite job, in seconds.

    The host's speed drifts by tens of percent over minutes, which no run
    length averages out. Every timed quantity is therefore scaled by
    ``REFERENCE_SECONDS`` over the calibration measured beside it, taken
    between operations, when the program has no work in flight. The job
    inserts, indexes and groups rows, like the program's archive work. In
    the host's slow phases the program slowed by up to four times while a
    pure-Python arithmetic loop barely slowed; scaled by this job, the
    operations of every workload varied at least three times less than
    when scaled by that loop.
    """
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        _calibration_work()
        best = min(best, time.perf_counter() - started)
    return best


def _scale(before: float, after: float) -> float:
    return REFERENCE_SECONDS * 2 / (before + after)


def _percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _tail(values: list[float]) -> str:
    """The highest of p99/p90 with at least ten samples beyond it."""
    for share, label in ((0.99, "p99"), (0.90, "p90")):
        if len(values) * (1 - share) >= 10:
            return f"{label} {_percentile(values, share) * 1e3:.3f} ms"
    return "no tail (too few samples)"


def _peak_rss_mb(record: dict) -> float:
    # ru_maxrss is in KiB on Linux; children covers the API server, whose
    # peak is known once it has been stopped and reaped.
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (record["own_rss_kib"] + children) / 1024


def run_workload(workload, seconds: float, tracer=None) -> dict:
    """Set up, measure for ``seconds``, check; return the result record.

    With a ``tracer``, the set-ups and ``traced_rounds`` rounds run
    traced, so the per-layer times cover a fixed amount of work; the
    untraced rounds beside them give the tracing overhead. A calibration
    is taken before the first set-up and after every set-up and round.
    """
    from workloads import OpTimer

    timer = OpTimer(tracer)
    setup_seconds, setup_scales = [], []
    calibration = calibrate()
    for attempt in range(SETUPS):
        if attempt:
            workload.discard()
        if tracer is not None:
            tracer.active = True
        started = time.perf_counter()
        workload.setup()
        setup_seconds.append(time.perf_counter() - started)
        if tracer is not None:
            tracer.active = False
        after = calibrate()
        setup_scales.append(_scale(calibration, after))
        calibration = after
    workload.warm()
    # The benchmark keeps its generated inputs alive for the whole run;
    # freezing them stops full collections from re-walking them, which a
    # process holding only the program's own objects would not do.
    gc.collect()
    gc.freeze()

    # A traced run alternates traced and untraced rounds until it has
    # traced ``traced_rounds``, so the overhead compares like with like.
    paired = 2 * workload.traced_rounds if tracer is not None else 1
    calibration = calibrate()
    round_scales, round_items = [], []
    own_rss_kib = None
    deadline = time.perf_counter() + seconds
    while (
        timer.round < max(paired, MEMORY_ROUNDS)
        or time.perf_counter() < deadline
    ):
        timer.traced = (
            tracer is not None
            and timer.round < paired
            and timer.round % 2 == 0
        )
        items = timer.items
        workload.round(timer.round, timer)
        round_items.append(timer.items - items)
        after = calibrate()
        round_scales.append(_scale(calibration, after))
        calibration = after
        timer.round += 1
        if timer.round == MEMORY_ROUNDS:
            own_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workload.finish(timer)
    return {
        "setup_seconds": setup_seconds,
        "setup_scales": setup_scales,
        "round_scales": round_scales,
        "round_items": round_items,
        "own_rss_kib": own_rss_kib,
        "paired": paired,
        "timer": timer,
        "counts": workload.counts(),
    }


def _seconds(
    record: dict,
    kind: str,
    traced: bool,
    scaled: bool = True,
    rounds: int | None = None,
) -> list[float]:
    """One kind of operation's times, at reference speed by default.

    ``rounds`` keeps only the samples of the first that many rounds.
    """
    scales = record["round_scales"]
    return [
        seconds * (scales[index] if scaled else 1.0)
        for op, was_traced, index, seconds in record["timer"].samples
        if op == kind
        and was_traced == traced
        and (rounds is None or index < rounds)
    ]


def _round_rates(record: dict) -> list[float]:
    """Items per second of operation time, one value per untraced round."""
    scales = record["round_scales"]
    busy: dict[int, float] = {}
    for _op, traced, index, seconds in record["timer"].samples:
        if not traced:
            busy[index] = busy.get(index, 0.0) + seconds * scales[index]
    return [
        record["round_items"][index] / spent for index, spent in busy.items()
    ]


def end_to_end_metrics(record: dict) -> dict:
    setup = [
        seconds * scale
        for seconds, scale in zip(
            record["setup_seconds"], record["setup_scales"]
        )
    ]
    primary = _seconds(record, "primary", False)
    secondary = _seconds(record, "secondary", False)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "primary_p50_ms": (statistics.median(primary) * 1e3, "ms"),
        "secondary_p50_ms": (statistics.median(secondary) * 1e3, "ms"),
        "items_per_s": (statistics.median(_round_rates(record)), "1/s"),
        "peak_rss_mb": (_peak_rss_mb(record), "MB"),
    }


def per_layer_metrics(record: dict, tracer) -> dict:
    from tracing import LAYERS

    paired = record["paired"]
    overheads = [
        statistics.median(_seconds(record, kind, True))
        / statistics.median(_seconds(record, kind, False, rounds=paired))
        - 1
        for kind in ("primary", "secondary")
    ]
    # Layer time spans set-ups and rounds alike: one run-wide scale.
    scale = statistics.median(record["setup_scales"] + record["round_scales"])
    metrics = {
        f"{layer}_s": (tracer.seconds.get(layer, 0.0) * scale, "s")
        for layer in LAYERS
    }
    counts = record["counts"]
    metrics.update(
        {
            "archive_rows_written": (
                tracer.counts.get("archive_rows_written", 0), "count"
            ),
            "chunks": (tracer.counts.get("chunks", 0), "count"),
            "archive_bytes_per_bundle": (
                counts.get("archive_bytes_per_bundle", 0.0), "bytes"
            ),
            "completeness": (counts.get("completeness", 1.0), "ratio"),
            "cache_hit_rate": (counts.get("cache_hit_rate", 0.0), "ratio"),
            "trace_overhead_pct": (statistics.mean(overheads) * 100, "%"),
        }
    )
    return metrics


def check_against_spec(metrics: dict, trace: bool) -> None:
    """Refuse to report a metric set that drifted from BENCHMARK.json."""
    if not SPEC.is_file():
        return
    spec = json.loads(SPEC.read_text())
    declared = {
        entry["name"]: entry["unit"]
        for entry in spec["per_layer" if trace else "end_to_end"]
    }
    emitted = {name: unit for name, (_value, unit) in metrics.items()}
    if emitted != declared:
        raise SystemExit(
            f"metrics {sorted(emitted.items())} do not match BENCHMARK.json "
            f"{sorted(declared.items())}"
        )


def summarize(name: str, record: dict, metrics: dict) -> str:
    timer = record["timer"]
    scales = record["setup_scales"] + record["round_scales"]
    lines = [
        f"workload {name}: {timer.round} rounds, {timer.attempted} "
        f"attempted, {timer.failed} failed; host speed "
        f"{min(scales):.2f}-{max(scales):.2f} x reference"
    ]
    for kind in ("primary", "secondary"):
        for traced in (False, True):
            raw = _seconds(record, kind, traced, scaled=False)
            if not raw:
                continue
            scaled = _seconds(record, kind, traced)
            lines.append(
                f"  {kind + (' (traced)' if traced else ''):<20} "
                f"n={len(raw):<6} p50 {statistics.median(scaled) * 1e3:.3f} "
                f"ms at reference speed ({statistics.median(raw) * 1e3:.3f} "
                f"ms wall), {_tail(scaled)}"
            )
    for metric, (value, unit) in metrics.items():
        lines.append(f"  {metric:<26} {value:.6g} {unit}")
    lines.extend(f"  FAILED: {error}" for error in timer.errors[:10])
    return "\n".join(lines)


def import_program() -> bool:
    """Put ``src/`` on the import path; False when the checkout lacks it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def measure(
    name: str, seed: int, seconds: float, trace: bool, **sizes
) -> tuple[dict, dict]:
    """Run one workload in a scratch directory; return record and metrics.

    ``sizes`` override the workload's default sizes. The metrics are the
    per-layer set when ``trace`` holds, the end-to-end set otherwise, and
    must match BENCHMARK.json.
    """
    import workloads
    from tracing import Tracer, install

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch, prefix=f"{name}-"))
    cls = workloads.WORKLOADS[name]
    if cls is workloads.ServeWorkload:
        sizes.update(src_dir=SRC, in_process=trace)
    workload = cls(seed, workdir, **sizes)
    tracer = Tracer() if trace else None
    try:
        if tracer is not None:
            install(tracer)
        record = run_workload(workload, seconds, tracer)
    finally:
        gc.unfreeze()
        workload.close()
        if tracer is not None:
            tracer.remove()
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = (
        per_layer_metrics(record, tracer)
        if trace
        else end_to_end_metrics(record)
    )
    check_against_spec(metrics, trace)
    return record, metrics


def run_one(args) -> int:
    if not import_program():
        return 2
    # One CPU for the run, its threads and the API server it starts: the
    # vCPUs of a shared host run at different speeds, and a process that
    # migrates between them gives runs with different medians. Pinned,
    # the calibration also measures the CPU every operation runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    record, metrics = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    timer = record["timer"]
    print(summarize(args.workload, record, metrics), file=sys.stderr)
    result = {
        "correct": timer.failed == 0,
        "attempted": timer.attempted,
        "failed": timer.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    if args.out:
        entry = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "samples": {
                kind: len(_seconds(record, kind, False))
                for kind in ("primary", "secondary")
            },
            "wall_p50_ms": {
                kind: statistics.median(
                    _seconds(record, kind, False, scaled=False)
                ) * 1e3
                for kind in ("primary", "secondary")
            },
            "host_speed": statistics.median(
                record["setup_scales"] + record["round_scales"]
            ),
            **result,
        }
        with open(args.out, "a") as handle:
            handle.write(json.dumps(entry) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; the last line aggregates them."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        command = [
            sys.executable, __file__,
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--out", args.out] if args.out else [])
        completed = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, check=False
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode not in (0, 1) or not lines:
            print(f"workload {name} exited {completed.returncode}",
                  file=sys.stderr)
            return completed.returncode or 1
        print(lines[-1])
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", default="all", choices=WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=None, help="append one JSON record per workload run"
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
