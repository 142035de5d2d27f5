"""The benchmark's four workloads.

Each workload prepares its inputs in ``setup`` (timed, repeated), then runs
rounds of two alternating operations, a *primary* and a *secondary* one,
through the same public entry points a user's command goes through:

- ``campaign``: a checkpointed batch campaign (``repro campaign
  --archive``) and a streaming one (``repro campaign --stream
  --archive``) over the same scenario.
- ``analyze``: a full archive analysis with the columnar engine and with
  the object engine (``repro analyze --engine ...``).
- ``ingest``: appending a batch of bundles to an archive, and the
  incremental re-analysis that follows it.
- ``serve``: archive API requests on cached routes and on uncached pages,
  over HTTP to a ``repro api`` process.

Every operation's output is checked; a mismatch counts as a failed
operation.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import os
import random
import re
import select
import shutil
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable

from repro.analysis import report as analysis_report
from repro.archive import CheckpointedCampaign
from repro.archive.database import ArchiveDatabase
from repro.archive.incremental import IncrementalAnalyzer
from repro.archive.store import ArchiveBundleStore
from repro.conformance import scenarios
from repro.conformance.oracle import ensure_reports_identical
from repro.core.pipeline import AnalysisPipeline, AnalysisReport
from repro.errors import ConformanceError
from repro.obs.registry import MetricsRegistry
from repro.parallel.engine import ParallelAnalysisEngine
from repro.parallel.merge import report_bytes
from repro.serve import ApiConfig, ArchiveApiApp
from repro.simulation.config import ScenarioConfig, TrendSpec
from repro.simulation.scenario import paper_scenario
from repro.stream import StreamingCampaign


class OpTimer:
    """Times a round's operations and tallies what they attempted."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        #: The round being run, and whether its operations run traced.
        self.round = 0
        self.traced = False
        #: ``(kind, traced, round, seconds)`` per timed operation.
        self.samples: list[tuple[str, bool, int, float]] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def time(self, kind: str, operation: Callable):
        """Run one operation, recording its wall time under ``kind``.

        Each operation starts after a full collection, as a fresh command
        would: otherwise the collector's periodic full passes lock onto
        one of the two alternating operations and split its median.
        """
        gc.collect()
        if self.tracer is not None:
            self.tracer.active = self.traced
        self.attempted += 1
        started = time.perf_counter()
        try:
            return operation()
        finally:
            elapsed = time.perf_counter() - started
            if self.tracer is not None:
                self.tracer.active = False
            self.samples.append((kind, self.traced, self.round, elapsed))

    def check(self, ok: bool, message: str) -> None:
        """Count one correctness check outside any timed operation."""
        self.attempted += 1
        self.fail_if(not ok, message)

    def fail_if(self, failed: bool, message: str) -> None:
        """Mark the latest attempt failed when ``failed`` holds."""
        if failed:
            self.failed += 1
            self.errors.append(message)


def _digest(report: AnalysisReport) -> str:
    return hashlib.sha256(report_bytes(report)).hexdigest()


def _check_reports(
    timer: OpTimer,
    expected: AnalysisReport,
    actual: AnalysisReport,
    labels: tuple[str, str],
    mode: str,
) -> None:
    """Count one oracle comparison as a check, its diff as the error."""
    try:
        ensure_reports_identical(expected, actual, *labels, mode=mode)
    except ConformanceError as exc:
        timer.check(False, str(exc))
    else:
        timer.check(True, "")


def _remove_archive(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


def _campaign_scenario(seed: int, volume: float) -> ScenarioConfig:
    """One day of the paper scenario at ``volume`` times its event rates.

    Spike days and per-day jitter are switched off, so every seed simulates
    the same number of events and only their content varies: with one
    simulated day per operation, a spike day would triple one run's work.
    """
    base = paper_scenario(seed=seed, days=1)
    steady = {}
    for spec in fields(base):
        trend = getattr(base, spec.name)
        if isinstance(trend, TrendSpec):
            steady[spec.name] = replace(
                trend,
                start=trend.start * volume,
                end=None if trend.end is None else trend.end * volume,
                noise=0.0,
            )
    return replace(base, spike_probability=0.0, **steady)


def _synthetic_rows(seed: int, bundles: int) -> list:
    # About half the bundles have three or more transactions, so both the
    # detection candidates and the detail loads are a real share of work.
    return scenarios.generate_rows(
        scenarios.SyntheticScenario(
            name="bench", seed=seed, bundles=bundles, attacker_density=0.08
        )
    )


class Workload:
    """Interface the runner drives; see the module docstring."""

    name = ""
    #: Rounds run with tracing on in a ``--trace 1`` run.
    traced_rounds = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self._archives = 0

    def _fresh(self, stem: str) -> Path:
        self._archives += 1
        return self.workdir / f"{stem}-{self._archives}.db"

    def setup(self) -> None:
        """Build the inputs the rounds start from (timed)."""
        raise NotImplementedError

    def discard(self) -> None:
        """Release the previous set-up before the next one (untimed)."""

    def warm(self) -> None:
        """Fill caches once after the last set-up (untimed)."""

    def round(self, index: int, timer: OpTimer) -> None:
        """Run one round of primary and secondary operations."""
        raise NotImplementedError

    def finish(self, timer: OpTimer) -> None:
        """Checks that need the whole window's outputs."""

    def counts(self) -> dict[str, float]:
        """Per-layer counts and ratios this workload measured."""
        return {}

    def close(self) -> None:
        """Stop anything still running."""


class CampaignWorkload(Workload):
    """Simulation, explorer, collector and archive writes, end to end.

    The only workload where bundles come from the live simulation; analysis
    is a small share of each operation.
    """

    name = "campaign"
    traced_rounds = 20
    #: Rounds cycle through this many scenarios, so no single scenario's
    #: content sets the median; the warm-up uses one of its own.
    SCENARIOS = 3

    def __init__(self, seed: int, workdir: Path, volume: float = 0.3) -> None:
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.scenarios = [
            _campaign_scenario(rng.randrange(2**31), volume)
            for _ in range(self.SCENARIOS)
        ]
        self.warmup = _campaign_scenario(rng.randrange(2**31), volume)
        self.digests: dict[int, str] = {}
        self.completeness: float | None = None
        self.bytes_per_bundle: float | None = None

    def _batch(self, scenario, path: Path):
        campaign = CheckpointedCampaign(scenario, path)
        result = campaign.run()
        report = AnalysisPipeline().analyze_campaign(result)
        analysis_report.render_campaign_report(result, report, scenario)
        campaign.store.close()
        return result, report

    def _stream(self, scenario, path: Path):
        metrics = MetricsRegistry()
        store = ArchiveBundleStore(path, metrics=metrics)
        streaming = StreamingCampaign(scenario, metrics=metrics, store=store)
        result, report = streaming.run()
        analysis_report.render_campaign_report(result, report, scenario)
        store.close()
        return result, report

    def setup(self) -> None:
        for run in (self._batch, self._stream):
            path = self._fresh("campaign-warmup")
            run(self.warmup, path)
            _remove_archive(path)

    def round(self, index: int, timer: OpTimer) -> None:
        position = index % len(self.scenarios)
        scenario = self.scenarios[position]
        for kind, run in (
            ("primary", self._batch), ("secondary", self._stream)
        ):
            path = self._fresh(f"campaign-{kind}")
            result, report = timer.time(kind, lambda: run(scenario, path))
            timer.items += len(result.store)
            if kind == "primary" and self.bytes_per_bundle is None:
                self.completeness = result.summary()["collection_completeness"]
                self.bytes_per_bundle = path.stat().st_size / len(result.store)
            _remove_archive(path)
            digest = _digest(report)
            expected = self.digests.setdefault(position, digest)
            timer.fail_if(
                digest != expected,
                f"campaign {kind} report differs from the first report of "
                f"scenario {position}",
            )

    def counts(self) -> dict[str, float]:
        return {
            "completeness": self.completeness or 0.0,
            "archive_bytes_per_bundle": self.bytes_per_bundle or 0.0,
        }


class AnalyzeWorkload(Workload):
    """Whole-archive analysis, dominated by the archive ``load`` stage."""

    name = "analyze"
    traced_rounds = 20
    ENGINES = (("primary", "columnar"), ("secondary", "object"))

    def __init__(self, seed: int, workdir: Path, bundles: int = 4_000) -> None:
        super().__init__(seed, workdir)
        self.bundles = bundles
        self.path: Path | None = None
        self.first: dict[str, tuple[AnalysisReport, str]] = {}

    def setup(self) -> None:
        path = self._fresh("analyze")
        scenarios.write_archive(_synthetic_rows(self.seed, self.bundles), path)
        self.path = path

    def discard(self) -> None:
        if self.path is not None:
            _remove_archive(self.path)

    def _analyze(self, engine: str) -> AnalysisReport:
        analysis = ParallelAnalysisEngine(self.path, jobs=1, engine=engine)
        try:
            return analysis.analyze(persist=False)
        finally:
            analysis.database.close()

    def warm(self) -> None:
        for _kind, engine in self.ENGINES:
            self._analyze(engine)

    def round(self, index: int, timer: OpTimer) -> None:
        for kind, engine in self.ENGINES:
            report = timer.time(kind, lambda: self._analyze(engine))
            timer.items += report.headline.bundles_collected
            digest = _digest(report)
            _first, expected = self.first.setdefault(engine, (report, digest))
            timer.fail_if(
                digest != expected,
                f"{engine} report differs from the first {engine} report",
            )

    def finish(self, timer: OpTimer) -> None:
        columnar, _ = self.first["columnar"]
        obj, _ = self.first["object"]
        _check_reports(timer, obj, columnar, ("object", "columnar"), "exact")

    def counts(self) -> dict[str, float]:
        return {
            "archive_bytes_per_bundle": self.path.stat().st_size / self.bundles
        }


class IngestWorkload(Workload):
    """Archive appends beside the incremental re-analysis they trigger.

    Each round appends one batch to a fresh copy of the set-up archive and
    refreshes the analysis with a new analyzer, as ``repro analyze
    --incremental`` does after new bundles arrive. Rounds cycle through
    the batches. Every append starts from the same archive state, so none
    pays for a write-ahead-log checkpoint that an earlier append left due:
    appended in sequence, the batches that happened to trigger one took
    40% longer, and how many of them did so varied with the seed.
    """

    name = "ingest"
    traced_rounds = 20
    BATCHES = 5

    def __init__(
        self, seed: int, workdir: Path, base: int = 10_000, batch: int = 1_000
    ) -> None:
        super().__init__(seed, workdir)
        self.base = base
        self.batch = batch
        self.path: Path | None = None
        self.batches: list[tuple[list, list]] = []
        self.digests: dict[int, str] = {}
        self.bytes_per_bundle: float | None = None

    def setup(self) -> None:
        rows = _synthetic_rows(self.seed, self.base + self.batch * self.BATCHES)
        path = self._fresh("ingest-base")
        scenarios.write_archive(rows[: self.base], path)
        database = ArchiveDatabase(path)
        try:
            IncrementalAnalyzer(database, engine="columnar").analyze()
        finally:
            database.close()
        self.path = path
        self.batches = [
            (
                [bundle for bundle, _ in chunk],
                [record for _, records in chunk for record in records],
            )
            for chunk in (
                rows[start : start + self.batch]
                for start in range(self.base, len(rows), self.batch)
            )
        ]

    def discard(self) -> None:
        if self.path is not None:
            _remove_archive(self.path)

    @staticmethod
    def _append(store: ArchiveBundleStore, bundles, details) -> None:
        store.add_bundles(bundles)
        store.add_details(details)
        store.flush()

    def round(self, index: int, timer: OpTimer) -> None:
        position = index % len(self.batches)
        bundles, details = self.batches[position]
        path = self.workdir / f"ingest-round-{index}.db"
        shutil.copyfile(self.path, path)
        database = ArchiveDatabase(path)
        try:
            store = ArchiveBundleStore(database)
            analyzer = IncrementalAnalyzer(database, engine="columnar")
            timer.time(
                "primary", lambda: self._append(store, bundles, details)
            )
            timer.items += len(bundles)
            result = timer.time("secondary", analyzer.analyze)
            self._verify(position, database, result.report, timer)
            if self.bytes_per_bundle is None:
                database.checkpoint_wal()
                self.bytes_per_bundle = (
                    path.stat().st_size / database.max_seq("bundles")
                )
        finally:
            database.close()
            _remove_archive(path)

    def _verify(
        self,
        position: int,
        database: ArchiveDatabase,
        report: AnalysisReport,
        timer: OpTimer,
    ) -> None:
        """The first refresh after each batch must match a full pass."""
        digest = _digest(report)
        expected = self.digests.get(position)
        if expected is not None:
            timer.check(
                digest == expected,
                f"incremental report after batch {position} differs from "
                "its first one",
            )
            return
        self.digests[position] = digest
        full = ParallelAnalysisEngine(
            database, jobs=1, engine="columnar"
        ).analyze(persist=False)
        _check_reports(
            timer, full, report, ("full pass", "incremental"), "contract"
        )

    def counts(self) -> dict[str, float]:
        return {"archive_bytes_per_bundle": self.bytes_per_bundle or 0.0}


#: Cached routes, all answered from the response cache once warm.
HOT_ROUTES = (
    "/v1/financials",
    "/v1/status",
    "/v1/aggregates/daily",
    "/v1/aggregates/lengths",
    "/v1/detections?limit=50",
)
PAGE_LIMIT = 50


class ApiProcess:
    """A ``repro api`` server in a child process, on an ephemeral port."""

    START_TIMEOUT = 60.0

    def __init__(self, db_path: Path, src_dir: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(src_dir), env.get("PYTHONPATH")))
        )
        env["PYTHONUNBUFFERED"] = "1"
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "api",
                "--db", str(db_path),
                "--port", "0",
                # Admission control is not under test: one client never
                # approaches these limits.
                "--rps", "1e9",
                "--burst", "1e9",
            ],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    def _await_port(self) -> int:
        deadline = time.monotonic() + self.START_TIMEOUT
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select(
                [stdout], [], [], deadline - time.monotonic()
            )
            if not ready:
                break
            line = stdout.readline()
            if not line:
                raise RuntimeError(
                    f"repro api exited with code {self.process.wait()} "
                    "before announcing its port"
                )
            match = re.search(r"http://[\w.]+:(\d+)", line)
            if match:
                return int(match.group(1))
        raise RuntimeError("repro api did not announce its port in time")

    def get(self, target: str) -> int:
        """One request on a fresh connection (the server closes each)."""
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=30
        )
        try:
            connection.request("GET", target)
            response = connection.getresponse()
            response.read()
            return response.status
        finally:
            connection.close()

    def stop(self) -> None:
        """Terminate the server and reap it.

        SIGTERM, not Ctrl-C: a benchmark started in the background of a
        shell inherits SIGINT as ignored, and so would the server. The
        server only reads the archive, so nothing needs a clean shutdown.
        """
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


class ServeWorkload(Workload):
    """Archive API requests: cache hits beside uncached page scans.

    One client in a closed loop: each request is sent when the previous
    response has been read. Requests alternate between the hot routes and
    ``/v1/bundles`` pages at seeded random offsets; analysis does no work.
    A traced run calls the app's ``handle`` in-process with the same
    sequence, so the program's layers can be timed from this process.
    """

    name = "serve"
    traced_rounds = 10
    PAIRS_PER_ROUND = 100

    def __init__(
        self,
        seed: int,
        workdir: Path,
        src_dir: Path,
        in_process: bool = False,
        bundles: int = 10_000,
    ) -> None:
        super().__init__(seed, workdir)
        self.src_dir = src_dir
        self.in_process = in_process
        self.bundles = bundles
        self.rng = random.Random(seed)
        self.path: Path | None = None
        self.server: ApiProcess | None = None
        self.app: ArchiveApiApp | None = None

    def setup(self) -> None:
        path = self._fresh("serve")
        scenarios.write_archive(_synthetic_rows(self.seed, self.bundles), path)
        analysis = ParallelAnalysisEngine(path, jobs=1, engine="columnar")
        try:
            analysis.analyze(persist=True)
        finally:
            analysis.database.close()
        self.path = path
        self.server = ApiProcess(path, self.src_dir)
        # The set-up ends once each hot route has answered its cold miss.
        for route in HOT_ROUTES:
            status = self.server.get(route)
            if status != 200:
                raise RuntimeError(f"warm-up GET {route} returned {status}")

    def discard(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.path is not None:
            _remove_archive(self.path)

    def _handle(self, target: str) -> int:
        status, _payload, _headers = self.app.handle(
            "GET", target, {}, "bench"
        )
        return status

    def warm(self) -> None:
        if self.in_process:
            self.app = ArchiveApiApp(
                ApiConfig(
                    db_path=self.path,
                    requests_per_second=1e9,
                    burst_capacity=1e9,
                )
            )
            self.app.open()
            for route in HOT_ROUTES:
                self._handle(route)

    def round(self, index: int, timer: OpTimer) -> None:
        get = self._handle if self.in_process else self.server.get
        first = index * self.PAIRS_PER_ROUND
        for pair in range(first, first + self.PAIRS_PER_ROUND):
            hot = HOT_ROUTES[pair % len(HOT_ROUTES)]
            offset = self.rng.randrange(self.bundles - PAGE_LIMIT)
            page = f"/v1/bundles?limit={PAGE_LIMIT}&offset={offset}"
            for kind, target in (("primary", hot), ("secondary", page)):
                status = timer.time(kind, lambda: get(target))
                timer.items += 1
                timer.fail_if(
                    status not in (200, 304), f"GET {target} returned {status}"
                )

    def counts(self) -> dict[str, float]:
        return {
            "archive_bytes_per_bundle": (
                self.path.stat().st_size / self.bundles
            ),
            "cache_hit_rate": self.app.cache.hit_rate() if self.app else 0.0,
        }

    def close(self) -> None:
        if self.app is not None:
            self.app.close()
            self.app = None
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {
    workload.name: workload
    for workload in (
        CampaignWorkload, AnalyzeWorkload, IngestWorkload, ServeWorkload
    )
}
