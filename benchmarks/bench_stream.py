"""Performance harness for the streaming pipeline (``repro.stream``).

Runs one seeded streaming campaign and gates the property that justifies
streaming at all: the full report must be ready within
``BENCH_STREAM_REPORT_BUDGET`` seconds (default 2.0) of the *final bundle*
landing — everything after the last batch is yielded is that batch's
ingest, a detector finalize and one deterministic merge, never a fresh
detection pass. Alongside the gate it checks byte identity against the
batch path, then writes the measurements to
``benchmarks/output/BENCH_STREAM.json`` (uploaded as a CI artifact by the
``stream-smoke`` job).

Scale down for smoke runs with ``BENCH_STREAM_DAYS`` / the seed with
``BENCH_STREAM_SEED``.
"""

from __future__ import annotations

import json
import os
import time

from benchmarks.conftest import OUTPUT_DIR, record_perf
from benchmarks.perf_schema import SCHEMA_STREAM
from repro.collector.campaign import MeasurementCampaign
from repro.core.pipeline import AnalysisPipeline
from repro.obs.registry import MetricsRegistry
from repro.parallel.merge import report_bytes
from repro.simulation.scenario import small_scenario
from repro.stream import StreamingCampaign

BENCH_STREAM_PATH = OUTPUT_DIR / "BENCH_STREAM.json"

DAYS = int(os.environ.get("BENCH_STREAM_DAYS", "6"))
SEED = int(os.environ.get("BENCH_STREAM_SEED", "20250806"))
REPORT_BUDGET_SECONDS = float(
    os.environ.get("BENCH_STREAM_REPORT_BUDGET", "2.0")
)

#: The streaming detector judges each candidate with a fresh detector of
#: the object engine.
ENGINE = "object"


class _TimedStreamingCampaign(StreamingCampaign):
    """Stamps each batch as it is yielded; the last stamp is the moment
    collection handed over its final batch."""

    collect_done: float | None = None

    def _batches(self):
        for batch in super()._batches():
            self.collect_done = time.perf_counter()
            yield batch


def test_streaming_report_lands_with_the_last_bundle():
    metrics = MetricsRegistry()
    streaming = _TimedStreamingCampaign(
        small_scenario(seed=SEED, days=DAYS), metrics=metrics
    )
    started = time.perf_counter()
    result, report = streaming.run()
    report_ready = time.perf_counter()
    wall = report_ready - started
    assert streaming.collect_done is not None
    time_to_report = report_ready - streaming.collect_done

    # The headline gate: streaming's entire value proposition.
    assert time_to_report <= REPORT_BUDGET_SECONDS, (
        f"report took {time_to_report:.3f}s after the final bundle "
        f"(budget {REPORT_BUDGET_SECONDS}s)"
    )

    # Byte identity with the batch path on the same (seed, scenario).
    batch_result = MeasurementCampaign(
        small_scenario(seed=SEED, days=DAYS)
    ).run()
    batch_report = AnalysisPipeline().analyze_campaign(batch_result)
    assert len(result.store) == len(batch_result.store)
    assert report_bytes(report) == report_bytes(batch_report)

    bundles = len(result.store)
    judged = streaming.detector.candidates_judged
    payload = {
        "schema": SCHEMA_STREAM,
        "days": DAYS,
        "seed": SEED,
        "bundles": bundles,
        "candidates_judged": judged,
        "wall_seconds": round(wall, 6),
        "bundles_per_sec": round(bundles / wall, 2) if wall > 0 else None,
        "time_to_report_seconds": round(time_to_report, 6),
        "report_budget_seconds": REPORT_BUDGET_SECONDS,
        "batch_identical": True,
        "cpu_count": os.cpu_count(),
        "engine": ENGINE,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    BENCH_STREAM_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    record_perf(
        "stream_campaign",
        bundles=bundles,
        seconds=wall,
        engine=ENGINE,
        time_to_report_seconds=payload["time_to_report_seconds"],
    )
