"""Chunk planning, projection scans, and task/spec validation."""

import pytest

from repro.archive.database import ArchiveDatabase
from repro.archive.query import ArchiveQuery, BundleFilter
from repro.errors import ConfigError
from repro.parallel.chunks import ChunkTask, DetectorSpec, plan_chunks
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
        chunks = plan_chunks(query, chunk_size=7)
        assert [chunk.count for chunk in chunks] == [7, 7, 7, 4]
        assert [chunk.index for chunk in chunks] == [0, 1, 2, 3]
        # Contiguous, ordered seq ranges with no gaps or overlaps.
        assert chunks[0].seq_lo == 1
        for before, after in zip(chunks, chunks[1:]):
            assert after.seq_lo == before.seq_hi + 1
        assert chunks[-1].seq_hi == query.count_bundles()

    def test_single_chunk_when_size_exceeds_rows(self, archive):
        chunks = plan_chunks(ArchiveQuery(archive), chunk_size=100)
        assert len(chunks) == 1
        assert chunks[0].count == 25

    def test_seq_min_skips_already_seen_rows(self, archive):
        chunks = plan_chunks(ArchiveQuery(archive), chunk_size=10, seq_min=20)
        assert sum(chunk.count for chunk in chunks) == 5
        assert chunks[0].seq_lo == 21

    def test_where_filter_restricts_chunks(self, archive):
        where = BundleFilter(tip_min=10_000 * 20)
        chunks = plan_chunks(ArchiveQuery(archive), chunk_size=4, where=where)
        assert sum(chunk.count for chunk in chunks) == 6

    def test_chunk_size_must_be_positive(self, archive):
        with pytest.raises(ConfigError):
            plan_chunks(ArchiveQuery(archive), chunk_size=0)

    def test_empty_archive_plans_no_chunks(self, tmp_path):
        db = ArchiveDatabase(tmp_path / "empty.db")
        assert plan_chunks(ArchiveQuery(db)) == []
        db.close()


class TestChunkBoundsParity:
    """The window-function planner reproduces the keyset walk exactly."""

    def _assert_same_plan(self, query, **kwargs):
        assert query.chunk_bounds(**kwargs) == list(
            query.iter_chunks(**kwargs)
        )

    def test_plain_plan_matches_iter_chunks(self, archive):
        self._assert_same_plan(ArchiveQuery(archive), chunk_size=7)

    def test_filtered_plan_matches_iter_chunks(self, archive):
        self._assert_same_plan(
            ArchiveQuery(archive),
            chunk_size=4,
            where=BundleFilter(tip_min=10_000 * 20),
        )

    def test_watermarked_plan_matches_iter_chunks(self, archive):
        self._assert_same_plan(
            ArchiveQuery(archive), chunk_size=10, seq_min=20
        )

    def test_uneven_tail_chunk_matches(self, archive):
        # 25 rows / size 6 leaves a 1-row tail — the boundary the
        # ROW_NUMBER grouping must get right.
        self._assert_same_plan(ArchiveQuery(archive), chunk_size=6)

    def test_empty_result_matches(self, tmp_path):
        db = ArchiveDatabase(tmp_path / "empty.db")
        self._assert_same_plan(ArchiveQuery(db), chunk_size=5)
        db.close()

    def test_invalid_chunk_size_rejected(self, archive):
        with pytest.raises(ConfigError):
            ArchiveQuery(archive).chunk_bounds(chunk_size=0)


class TestBundleIndex:
    def test_projection_skips_payload(self, archive):
        keys = ArchiveQuery(archive).bundle_index()
        assert len(keys) == 25
        first = keys[0]
        assert first.seq == 1
        assert first.num_transactions == 1
        assert not hasattr(first, "transaction_ids")

    def test_index_respects_filters(self, archive):
        keys = ArchiveQuery(archive).bundle_index(
            where=BundleFilter(tip_min=10_000 * 20)
        )
        assert all(key.tip_lamports >= 200_000 for key in keys)
        assert len(keys) == 6


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
        chunk = plan_chunks(ArchiveQuery(archive), chunk_size=100)[0]
        with pytest.raises(ConfigError):
            ChunkTask(index=0, spec=spec).validate()
        with pytest.raises(ConfigError):
            ChunkTask(
                index=0, spec=spec, chunk=chunk, bundle_ids=("b1",)
            ).validate()
        ChunkTask(index=0, spec=spec, chunk=chunk).validate()
        ChunkTask(index=0, spec=spec, bundle_ids=("b1",)).validate()
