"""Chunk planning and task/spec validation."""

import pytest

from repro.archive import ArchiveBundleStore, IncrementalAnalyzer
from repro.archive.database import ArchiveDatabase
from repro.archive.query import ArchiveChunk, ArchiveQuery
from repro.conformance.oracle import ensure_reports_identical
from repro.conformance.scenarios import (
    SyntheticScenario,
    generate_rows,
    write_archive,
)
from repro.errors import ConfigError
from repro.parallel import ParallelAnalysisEngine
from repro.parallel.chunks import ChunkTask, DetectorSpec
from tests.parallel.helpers import build_archive


@pytest.fixture
def archive(tmp_path):
    descriptors = [("plain", i, 10_000 * (i + 1)) for i in range(25)]
    path = tmp_path / "archive.db"
    build_archive(path, descriptors)
    db = ArchiveDatabase(path)
    yield db
    db.close()


class TestIterChunks:
    def test_chunks_partition_the_archive(self, archive):
        query = ArchiveQuery(archive)
        chunks = query.chunk_plan(7)
        assert [chunk.count for chunk in chunks] == [7, 7, 7, 4]
        assert [chunk.index for chunk in chunks] == [0, 1, 2, 3]
        # Contiguous, ordered seq ranges with no gaps or overlaps.
        assert chunks[0].seq_lo == 1
        for before, after in zip(chunks, chunks[1:]):
            assert after.seq_lo == before.seq_hi + 1
        assert chunks[-1].seq_hi == query.count_bundles()

    def test_single_chunk_when_size_exceeds_rows(self, archive):
        chunks = ArchiveQuery(archive).chunk_plan(100)
        assert chunks == [ArchiveChunk(index=0, seq_lo=1, seq_hi=25, count=25)]

    def test_tail_chunk_holds_the_remainder(self, archive):
        query = ArchiveQuery(archive)
        assert [chunk.count for chunk in query.chunk_plan(6)] == [6] * 4 + [1]
        # An exact multiple ends on a full chunk, with no empty one.
        assert [chunk.count for chunk in query.chunk_plan(5)] == [5] * 5

    def test_seq_min_skips_already_seen_rows(self, archive):
        chunks = ArchiveQuery(archive).chunk_plan(10, seq_min=20)
        assert sum(chunk.count for chunk in chunks) == 5
        assert chunks[0].seq_lo == 21

    def test_chunk_size_must_be_positive(self, archive):
        with pytest.raises(ConfigError):
            ArchiveQuery(archive).chunk_plan(0)

    def test_empty_archive_plans_no_chunks(self, tmp_path):
        db = ArchiveDatabase(tmp_path / "empty.db")
        assert ArchiveQuery(db).chunk_plan(5) == []
        db.close()

    def test_seq_gap_left_by_truncation(self, tmp_path):
        """A resume truncates the bundles past its checkpoint and collects
        them again under new ``seq`` values. The plan over the gapped
        column still covers every bundle once, and an incremental pass
        across the gap equals a full pass."""
        rows = generate_rows(
            SyntheticScenario(name="gap", seed=5, bundles=120)
        )
        database = ArchiveDatabase(write_archive(rows[:90], tmp_path / "g.db"))
        try:
            store = ArchiveBundleStore(database)
            store.truncate_after(60, database.max_seq("transactions"))
            IncrementalAnalyzer(database, chunk_size=16).analyze()
            store.add_bundles([bundle for bundle, _ in rows[60:]])
            store.add_details(
                [record for _, records in rows[90:] for record in records]
            )
            store.flush()
            seqs = [
                seq
                for (seq,) in database.tuples(
                    "SELECT seq FROM bundles ORDER BY seq", []
                ).fetchall()
            ]
            assert seqs[59:61] == [60, 91]
            chunks = ArchiveQuery(database).chunk_plan(16)
            assert [chunk.count for chunk in chunks] == [16] * 7 + [8]
            covered = [
                [seq for seq in seqs if chunk.seq_lo <= seq <= chunk.seq_hi]
                for chunk in chunks
            ]
            assert [len(part) for part in covered] == [
                chunk.count for chunk in chunks
            ]
            assert [seq for part in covered for seq in part] == seqs
            analyzer = IncrementalAnalyzer(database, chunk_size=16)
            incremental = analyzer.analyze()
            assert incremental.new_bundles == 60
            full = ParallelAnalysisEngine(
                database, jobs=1, chunk_size=16
            ).analyze(persist=False)
        finally:
            database.close()
        ensure_reports_identical(
            full, incremental.report, "full", "incremental", mode="contract"
        )


class TestDetectorSpec:
    def test_default_is_standard_length_three(self):
        spec = DetectorSpec()
        spec.validate()
        assert spec.detail_lengths == (3,)
        assert type(spec.build_detector()).__name__ == "SandwichDetector"

    def test_windowed_lengths_sorted_unique(self):
        spec = DetectorSpec(kind="windowed", lengths=(5, 3, 4, 3))
        assert spec.detail_lengths == (3, 4, 5)
        assert spec.build_detector().lengths == (3, 4, 5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            DetectorSpec(kind="quantum").validate()

    def test_spec_round_trips_through_pickle(self):
        import pickle

        spec = DetectorSpec(kind="windowed", skip_criteria=frozenset({"x"}))
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestChunkTask:
    def test_needs_exactly_one_selector(self, archive):
        spec = DetectorSpec()
        (chunk,) = ArchiveQuery(archive).chunk_plan(100)
        with pytest.raises(ConfigError):
            ChunkTask(index=0, spec=spec).validate()
        with pytest.raises(ConfigError):
            ChunkTask(
                index=0, spec=spec, chunk=chunk, bundle_ids=("b1",)
            ).validate()
        ChunkTask(index=0, spec=spec, chunk=chunk).validate()
        ChunkTask(index=0, spec=spec, bundle_ids=("b1",)).validate()
