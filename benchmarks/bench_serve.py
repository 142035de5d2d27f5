"""Load harness for the archive-API serving tier.

Serves an analyzed golden-corpus archive on one
:class:`~repro.serve.httpcommon.HttpServer` and drives
``BENCH_SERVE_CLIENTS`` concurrent clients (default 1000 — CI's api-smoke
job shrinks it) against a small URL mix, every client on its own socket
with its own ``X-Client-Id``. Half the fleet
revalidates with ``If-None-Match``, exercising the 304 path under load.

Gates, recorded into ``benchmarks/output/BENCH_SERVE.json``:

- p99 request latency under ``BENCH_SERVE_P99_BUDGET`` seconds (default
  5.0 — generous on purpose: CI machines are noisy, and the gate is for
  catastrophic regressions like an accidental per-request table scan);
- every request answered (no drops at full concurrency: the listen
  backlog must absorb the whole fleet's simultaneous connect burst);
- response-cache hit rate of at least 0.5 after a one-pass warm-up (the
  watermark never moves during the run, so misses mean cache churn).
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from pathlib import Path

import pytest

from benchmarks.conftest import OUTPUT_DIR, record_perf
from benchmarks.perf_schema import SCHEMA_SERVE
from repro.archive.database import ArchiveDatabase
from repro.conformance.scenarios import (
    CORPUS_SCENARIOS,
    generate_rows,
    write_archive,
)
from repro.parallel.engine import ParallelAnalysisEngine
from repro.serve import ApiConfig, ArchiveApiApp, HttpServer

BENCH_SERVE_PATH = OUTPUT_DIR / "BENCH_SERVE.json"

CLIENTS = int(os.environ.get("BENCH_SERVE_CLIENTS", "1000"))
REQUESTS_PER_CLIENT = int(os.environ.get("BENCH_SERVE_REQUESTS", "3"))
P99_BUDGET_SECONDS = float(os.environ.get("BENCH_SERVE_P99_BUDGET", "5.0"))
MIN_CACHE_HIT_RATE = 0.5

#: The analysis engine that fills the served archive (the engine's default).
ENGINE = "object"

#: The URL mix every client cycles through (distinct cache entries).
URL_MIX = (
    "/v1/financials",
    "/v1/status",
    "/v1/detections?limit=50",
    "/v1/bundles?limit=50",
    "/v1/aggregates/daily",
)


@pytest.fixture(scope="module")
def api_server(tmp_path_factory):
    """``(server, app)``: an API over an analyzed corpus archive, rate
    limits out of the way."""
    db_path = tmp_path_factory.mktemp("bench-serve") / "archive.db"
    rows = generate_rows(CORPUS_SCENARIOS[0])
    write_archive(rows, db_path)
    engine = ParallelAnalysisEngine(
        ArchiveDatabase(db_path), jobs=1, engine=ENGINE
    )
    engine.analyze()
    engine.database.close()
    app = ArchiveApiApp(
        ApiConfig(
            db_path=db_path,
            requests_per_second=1_000_000.0,
            burst_capacity=1_000_000.0,
            cache_entries=64,
        )
    )
    with HttpServer() as server:
        app.serve(server)
        yield server, app


async def _request(
    port: int, path: str, client_id: str, etag: str | None = None
) -> tuple[int, str | None, float]:
    """One HTTP request; returns (status, etag, wall seconds)."""
    started = time.perf_counter()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        conditional = (
            f"If-None-Match: {etag}\r\n" if etag is not None else ""
        )
        writer.write(
            (
                f"GET {path} HTTP/1.1\r\n"
                f"Host: bench\r\n"
                f"X-Client-Id: {client_id}\r\n"
                f"{conditional}"
                f"\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(-1), timeout=60)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head = raw.split(b"\r\n\r\n", 1)[0].decode("latin-1")
    lines = head.split("\r\n")
    status = int(lines[0].split(" ")[1])
    response_etag = None
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "etag":
            response_etag = value.strip()
    return status, response_etag, time.perf_counter() - started


async def _client(
    port: int,
    index: int,
    etags: dict[str, str],
    latencies: list[float],
    statuses: list[int],
    gate: asyncio.Event,
) -> None:
    """One simulated client: connect-burst together, then request the mix."""
    await gate.wait()
    revalidates = index % 2 == 1
    for turn in range(REQUESTS_PER_CLIENT):
        path = URL_MIX[(index + turn) % len(URL_MIX)]
        etag = etags.get(path) if revalidates else None
        status, _tag, seconds = await _request(
            port, path, f"bench-client-{index}", etag=etag
        )
        latencies.append(seconds)
        statuses.append(status)


async def _run_fleet(port: int) -> tuple[list[float], list[int], dict, float]:
    # Warm pass: one miss per URL, capturing validators for revalidators.
    etags: dict[str, str] = {}
    for path in URL_MIX:
        status, etag, _seconds = await _request(port, path, "bench-warmup")
        assert status == 200, f"warm-up {path} -> {status}"
        assert etag is not None
        etags[path] = etag

    latencies: list[float] = []
    statuses: list[int] = []
    gate = asyncio.Event()
    tasks = [
        asyncio.create_task(
            _client(port, index, etags, latencies, statuses, gate)
        )
        for index in range(CLIENTS)
    ]
    started = time.perf_counter()
    gate.set()
    await asyncio.gather(*tasks)
    wall = time.perf_counter() - started
    return latencies, statuses, etags, wall


def _percentile(sorted_values: list[float], fraction: float) -> float:
    index = min(
        len(sorted_values) - 1, int(len(sorted_values) * fraction)
    )
    return sorted_values[index]


def test_serving_tier_sustains_concurrent_fleet(api_server):
    server, app = api_server
    latencies, statuses, _etags, wall = asyncio.run(_run_fleet(server.port))
    expected = CLIENTS * REQUESTS_PER_CLIENT

    # No drops: every request of every client came back with a response.
    assert len(statuses) == expected
    assert set(statuses) <= {200, 304}, sorted(set(statuses))
    revalidated = sum(1 for status in statuses if status == 304)
    assert revalidated > 0, "no conditional GET was revalidated"

    ordered = sorted(latencies)
    p50 = _percentile(ordered, 0.50)
    p99 = _percentile(ordered, 0.99)
    assert p99 <= P99_BUDGET_SECONDS, (
        f"p99 {p99:.3f}s over budget {P99_BUDGET_SECONDS}s"
    )

    hit_rate = app.cache.hit_rate()
    assert hit_rate >= MIN_CACHE_HIT_RATE, (
        f"cache hit rate {hit_rate:.3f} below {MIN_CACHE_HIT_RATE}"
    )

    payload = {
        "schema": SCHEMA_SERVE,
        "clients": CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "requests_total": expected,
        "responses_304": revalidated,
        "wall_seconds": round(wall, 6),
        "requests_per_sec": round(expected / wall, 2) if wall > 0 else None,
        "latency_p50_ms": round(p50 * 1_000, 3),
        "latency_p99_ms": round(p99 * 1_000, 3),
        "latency_max_ms": round(ordered[-1] * 1_000, 3),
        "p99_budget_seconds": P99_BUDGET_SECONDS,
        "cache_hit_rate": round(hit_rate, 4),
        "cpu_count": os.cpu_count(),
        "engine": ENGINE,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    BENCH_SERVE_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    record_perf(
        "serve_fleet",
        bundles=expected,
        seconds=wall,
        p99_ms=payload["latency_p99_ms"],
        engine=ENGINE,
        cache_hit_rate=payload["cache_hit_rate"],
    )
