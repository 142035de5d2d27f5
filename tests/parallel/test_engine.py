"""Engine parity: serial and parallel analysis are byte-identical."""

import pytest

from repro.archive.database import ArchiveDatabase
from repro.archive.incremental import IncrementalAnalyzer
from repro.archive.store import ArchiveBundleStore
from repro.core.detector import WindowedSandwichDetector
from repro.core.pipeline import AnalysisPipeline
from repro.errors import ConfigError
from repro.obs.registry import MetricsRegistry
from repro.parallel import DetectorSpec, ParallelAnalysisEngine, default_jobs
from repro.parallel.merge import report_bytes
from tests.parallel.helpers import build_archive, descriptor_rows, write_rows

#: A mixed campaign: sandwiches, benign triples, pending bundles,
#: length-one tip bundles (some above the defensive threshold), longer
#: bundles, and deliberate landed-at ties (equal offsets).
DESCRIPTORS = (
    [("sandwich", i, 2_000_000) for i in range(6)]
    + [("benign3", i, 50_000) for i in range(6)]
    + [("undetailed3", 3, 75_000) for _ in range(3)]
    + [("plain", i % 4, 10_000) for i in range(12)]
    + [("plain", i % 4, 900_000) for i in range(8)]
    + [("long", 2, 400_000) for _ in range(4)]
    + [("pair", 5, 60_000) for _ in range(3)]
)


@pytest.fixture
def archive(tmp_path):
    path = tmp_path / "archive.db"
    build_archive(path, DESCRIPTORS)
    return path


def serial_report(path, detector=None):
    store = ArchiveBundleStore.resume(path)
    pipeline = AnalysisPipeline(detector=detector)
    report = pipeline.analyze_store(store)
    store.database.close()
    return report


class TestFullAnalysisParity:
    def test_in_process_jobs_one_matches_serial_pipeline(self, archive):
        serial = serial_report(archive)
        engine = ParallelAnalysisEngine(archive, jobs=1, chunk_size=5)
        assert report_bytes(engine.analyze(persist=False)) == report_bytes(
            serial
        )
        engine.database.close()

    def test_pool_jobs_match_serial_pipeline(self, archive):
        serial = serial_report(archive)
        for jobs, chunk_size in ((2, 5), (4, 3)):
            engine = ParallelAnalysisEngine(
                archive, jobs=jobs, chunk_size=chunk_size
            )
            parallel = engine.analyze(persist=False)
            assert report_bytes(parallel) == report_bytes(serial)
            engine.database.close()

    def test_columnar_pool_batches_match_serial_pipeline(self, archive):
        # chunk_size 5 over ~42 bundles gives more tasks than workers, so
        # each pool worker runs a round-robin batch of several tasks.
        serial = serial_report(archive)
        engine = ParallelAnalysisEngine(
            archive, jobs=2, chunk_size=5, engine="columnar"
        )
        assert report_bytes(engine.analyze(persist=False)) == report_bytes(
            serial
        )
        engine.database.close()

    def test_windowed_spec_matches_windowed_pipeline(self, archive):
        serial = serial_report(archive, detector=WindowedSandwichDetector())
        engine = ParallelAnalysisEngine(
            archive,
            jobs=2,
            chunk_size=4,
            spec=DetectorSpec(kind="windowed"),
        )
        assert report_bytes(engine.analyze(persist=False)) == report_bytes(
            serial
        )
        engine.database.close()

    def test_sandwiches_actually_detected(self, archive):
        engine = ParallelAnalysisEngine(archive, jobs=1, chunk_size=5)
        report = engine.analyze(persist=False)
        assert report.sandwich_count == 6
        assert report.headline.defensive_bundles > 0
        engine.database.close()


class TestPersistence:
    def test_analyze_persists_detections(self, archive):
        engine = ParallelAnalysisEngine(archive, jobs=1, chunk_size=5)
        report = engine.analyze()
        counts = engine.database.table_counts()
        assert counts["sandwiches"] == report.sandwich_count
        assert counts["defensive"] == report.defensive.length_one_total
        engine.database.close()


class TestInstrumentation:
    def test_chunk_metrics_recorded(self, archive):
        registry = MetricsRegistry()
        engine = ParallelAnalysisEngine(
            archive, jobs=1, chunk_size=10, metrics=registry
        )
        engine.analyze(persist=False)
        assert registry.counter("parallel_chunks_total").value() == 5
        assert registry.gauge("parallel_jobs").value() == 1
        assert registry.gauge("parallel_chunks_pending").value() == 0
        engine.database.close()


class TestConfiguration:
    def test_default_jobs_is_at_least_one(self):
        assert default_jobs() >= 1

    def test_invalid_jobs_rejected(self, archive):
        with pytest.raises(ConfigError):
            ParallelAnalysisEngine(archive, jobs=0)

    def test_invalid_chunk_size_rejected(self, archive):
        with pytest.raises(ConfigError):
            ParallelAnalysisEngine(archive, jobs=1, chunk_size=0)

    def test_empty_archive_produces_empty_report(self, tmp_path):
        engine = ParallelAnalysisEngine(tmp_path / "empty.db", jobs=1)
        report = engine.analyze(persist=False)
        assert report.sandwich_count == 0
        assert report.headline.bundles_collected == 0
        engine.database.close()


class TestIncrementalParity:
    def _two_phase(self, tmp_path, jobs):
        """Phase-1 analyze, append phase 2, analyze again (kill/resume)."""
        phase1 = descriptor_rows(
            [("sandwich", i, 2_000_000) for i in range(3)]
            + [("undetailed3", 1, 75_000) for _ in range(2)]
            + [("plain", i % 3, 10_000) for i in range(6)]
        )
        phase2 = descriptor_rows(
            [("sandwich", 10 + i, 2_000_000) for i in range(2)]
            + [("plain", 10, 900_000) for _ in range(4)]
        )
        path = tmp_path / f"inc-{jobs}.db"
        write_rows(path, phase1)
        analyzer = IncrementalAnalyzer(
            ArchiveDatabase(path), jobs=jobs, chunk_size=4
        )
        first = analyzer.analyze()
        write_rows(path, phase2)
        second = analyzer.analyze()
        analyzer.database.close()
        return first, second

    def test_parallel_incremental_matches_serial(self, tmp_path):
        serial_first, serial_second = self._two_phase(tmp_path, jobs=1)
        par_first, par_second = self._two_phase(tmp_path, jobs=3)
        # NOTE: the two databases hold different synthetic ids, so compare
        # counts and shapes rather than raw bytes here; byte-level parity
        # over identical rows is covered by the property test.
        for serial, parallel in (
            (serial_first, par_first),
            (serial_second, par_second),
        ):
            assert serial.new_bundles == parallel.new_bundles
            assert serial.new_sandwiches == parallel.new_sandwiches
            assert serial.new_classified == parallel.new_classified
            assert (
                serial.pending_detail_bundles
                == parallel.pending_detail_bundles
            )
            assert (
                serial.report.detection_stats
                == parallel.report.detection_stats
            )

    def test_pending_bundles_carry_across_passes(self, tmp_path):
        _, second = self._two_phase(tmp_path, jobs=3)
        # The two undetailed bundles stay pending through both passes.
        assert second.pending_detail_bundles == 2


class TestKillResumeIdentity:
    def _resume(self, path, rows, kill_at, jobs):
        """Write rows up to ``kill_at``, analyze, append the rest, resume."""
        write_rows(path, rows[:kill_at])
        analyzer = IncrementalAnalyzer(
            ArchiveDatabase(path), jobs=jobs, chunk_size=4
        )
        passes = [analyzer.analyze()]
        write_rows(path, rows[kill_at:])
        passes.append(analyzer.analyze())
        state = analyzer.load_state()
        analyzer.database.close()
        return passes, state

    def test_pooled_resume_matches_in_process_resume(self, tmp_path):
        """Stop mid-archive and resume from the watermark at ``jobs=2``:
        both passes and the stored state must be byte-identical to the
        same kill/resume run in-process."""
        rows = descriptor_rows(DESCRIPTORS)
        kill_at = len(rows) // 2
        plain_passes, plain_state = self._resume(
            tmp_path / "plain.db", rows, kill_at, jobs=1
        )
        pooled_passes, pooled_state = self._resume(
            tmp_path / "pooled.db", rows, kill_at, jobs=2
        )
        assert pooled_state == plain_state
        for plain, pooled in zip(plain_passes, pooled_passes):
            assert report_bytes(pooled.report) == report_bytes(plain.report)
            assert pooled.pending_detail_bundles == (
                plain.pending_detail_bundles
            )


def _analysis_dump(path):
    """Every stored analysis row, sorted: what a failed pass must keep."""
    database = ArchiveDatabase(path)
    dump = {
        table: sorted(
            tuple(row)
            for row in database.connection.execute(f"SELECT * FROM {table}")
        )
        for table in ("sandwiches", "defensive", "analysis_state")
    }
    database.close()
    return dump


class TestFailedLoad:
    def test_failed_chunk_load_leaves_stored_analysis_untouched(
        self, tmp_path, monkeypatch
    ):
        rows = descriptor_rows(DESCRIPTORS)
        kill_at = len(rows) // 2
        path = tmp_path / "archive.db"
        write_rows(path, rows[:kill_at])
        analyzer = IncrementalAnalyzer(ArchiveDatabase(path), chunk_size=4)
        analyzer.analyze()
        before = _analysis_dump(path)
        assert before["sandwiches"] and before["analysis_state"]

        def exploding_load(database, task):
            raise RuntimeError("chunk load failed")

        monkeypatch.setattr(
            "repro.parallel.worker.load_task", exploding_load
        )
        engine = ParallelAnalysisEngine(path, jobs=1, chunk_size=4)
        with pytest.raises(RuntimeError, match="chunk load failed"):
            engine.analyze(persist=True)
        engine.database.close()
        assert _analysis_dump(path) == before

        write_rows(path, rows[kill_at:])
        with pytest.raises(RuntimeError, match="chunk load failed"):
            analyzer.analyze()
        analyzer.database.close()
        assert _analysis_dump(path) == before


class TestByteIdenticalAcrossDatabases:
    def test_identical_rows_identical_bytes_any_jobs(self, tmp_path):
        # Materialize ONE set of rows, write it to three databases, and
        # analyze each with a different job count: the canonical report
        # bytes must match exactly.
        rows = descriptor_rows(DESCRIPTORS)
        reports = []
        for jobs in (1, 2, 4):
            path = tmp_path / f"jobs-{jobs}.db"
            write_rows(path, rows)
            engine = ParallelAnalysisEngine(path, jobs=jobs, chunk_size=6)
            reports.append(report_bytes(engine.analyze(persist=False)))
            engine.database.close()
        assert reports[0] == reports[1] == reports[2]
