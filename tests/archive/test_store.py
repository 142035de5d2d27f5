"""Batched archive writer: flush bound, dedup, replay, truncation, reload."""

import pytest

from repro.archive.store import FLUSH_MAX_PENDING, ArchiveBundleStore
from repro.core.defensive import DefensiveReport
from repro.errors import StoreError
from repro.obs.registry import MetricsRegistry
from repro.utils.simtime import unix_to_date
from tests.archive.conftest import make_bundle, make_detail, make_sandwich


def count(db, table: str) -> int:
    return db.connection.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]


def archived_store(db, *indexes: int) -> ArchiveBundleStore:
    """A store whose bundles ``b{i}`` are committed: classification rows
    copy their key, date and tip from them."""
    store = ArchiveBundleStore(db)
    store.add_bundles([make_bundle(i) for i in indexes])
    store.flush()
    return store


class TestFlushPolicy:
    def test_buffers_until_threshold(self, db):
        store = ArchiveBundleStore(db)
        store.add_bundles(
            [make_bundle(i) for i in range(FLUSH_MAX_PENDING - 1)]
        )
        assert store.pending == FLUSH_MAX_PENDING - 1
        assert count(db, "bundles") == 0

    def test_policy_triggers_commit(self, db):
        store = ArchiveBundleStore(db)
        store.add_bundles([make_bundle(i) for i in range(FLUSH_MAX_PENDING)])
        assert store.pending == 0
        assert count(db, "bundles") == FLUSH_MAX_PENDING

    def test_details_count_toward_threshold(self, db):
        store = ArchiveBundleStore(db)
        store.add_bundles(
            [make_bundle(i) for i in range(FLUSH_MAX_PENDING - 1)]
        )
        store.add_details([make_detail("t1-0")])
        assert store.pending == 0
        assert count(db, "transactions") == 1

    def test_explicit_flush_returns_rows_written(self, db):
        store = ArchiveBundleStore(db)
        store.add_bundles([make_bundle(1), make_bundle(2)])
        assert store.flush() == 2
        assert store.flush() == 0

    def test_close_flushes(self, tmp_path):
        path = tmp_path / "a.db"
        with ArchiveBundleStore(path) as store:
            store.add_bundles([make_bundle(1)])
        assert count(ArchiveBundleStore.resume(path).database, "bundles") == 1


class TestWritePath:
    def test_duplicates_not_requeued(self, db):
        store = ArchiveBundleStore(db)
        store.add_bundles([make_bundle(1)])
        store.add_bundles([make_bundle(1), make_bundle(2)])
        assert store.pending == 2
        store.flush()
        assert count(db, "bundles") == 2

    def test_member_rows_written_per_transaction(self, db):
        store = ArchiveBundleStore(db)
        store.add_bundles([make_bundle(1, length=3)])
        store.flush()
        assert count(db, "bundle_transactions") == 3

    def test_in_memory_reads_unaffected_by_buffering(self, db):
        store = ArchiveBundleStore(db)
        store.add_bundles([make_bundle(1)])
        assert store.get_bundle("b1") is not None

    def test_write_metrics_recorded(self, db):
        registry = MetricsRegistry()
        store = ArchiveBundleStore(db, metrics=registry)
        store.add_bundles([make_bundle(i) for i in range(FLUSH_MAX_PENDING)])
        store.add_bundles([make_bundle(FLUSH_MAX_PENDING)])
        store.flush()
        rows = registry.get("archive_rows_written_total")
        assert rows.value(table="bundles") == FLUSH_MAX_PENDING + 1
        flushes = registry.get("archive_flushes_total")
        assert flushes.value(trigger="policy") == 1
        assert flushes.value(trigger="explicit") == 1


class TestAnalysisOutputs:
    def test_record_sandwiches_idempotent_per_bundle(self, db):
        store = ArchiveBundleStore(db)
        store.record_sandwiches([make_sandwich(1), make_sandwich(2)])
        store.record_sandwiches([make_sandwich(1)])
        assert count(db, "sandwiches") == 2

    def test_record_defensive_writes_both_classes(self, db):
        store = archived_store(db, 1, 2, 3)
        report = DefensiveReport(
            threshold_lamports=100_000,
            defensive_ids=["b1", "b2"],
            priority_ids=["b3"],
        )
        assert store.record_defensive(report) == 3
        rows = db.connection.execute(
            "SELECT classification, COUNT(*) AS n FROM defensive "
            "GROUP BY classification"
        ).fetchall()
        assert {r["classification"]: r["n"] for r in rows} == {
            "defensive": 2,
            "priority": 1,
        }

    def test_record_defensive_copies_seq_date_and_tip(self, db):
        store = archived_store(db, 4, 5)
        store.record_defensive(
            DefensiveReport(
                threshold_lamports=100_000,
                defensive_ids=["b5"],
                priority_ids=["b4"],
            )
        )
        rows = db.connection.execute(
            "SELECT d.bundle_seq, b.seq, d.landed_date, b.landed_date, "
            "d.tip_lamports, b.tip_lamports FROM defensive d "
            "JOIN bundles b ON b.bundle_id = d.bundle_id"
        ).fetchall()
        assert len(rows) == 2
        for row in rows:
            assert row[0] == row[1]
            assert row[2] == row[3]
            assert row[4] == row[5]

    def test_stored_date_is_the_bundle_date_around_midnight(self, db):
        midnight = 1_739_059_200.0  # 2025-02-09T00:00:00Z
        offsets = (0.0, -1e-6, -4e-7, 1e-6, -1.0, 43_200.0)
        store = ArchiveBundleStore(db)
        store.add_bundles(
            [
                make_bundle(i, landed_at=midnight + offset)
                for i, offset in enumerate(offsets)
            ]
        )
        store.flush()
        store.record_defensive(
            DefensiveReport(
                threshold_lamports=100_000,
                defensive_ids=[f"b{i}" for i in range(len(offsets))],
            )
        )
        rows = db.connection.execute(
            "SELECT d.landed_date, b.landed_at FROM defensive d "
            "JOIN bundles b ON b.seq = d.bundle_seq"
        ).fetchall()
        assert len(rows) == len(offsets)
        for date, landed_at in rows:
            assert date == unix_to_date(landed_at)
        assert sorted(row[0] for row in rows) == [
            "2025-02-08",
            "2025-02-08",
            "2025-02-09",
            "2025-02-09",
            "2025-02-09",
            "2025-02-09",
        ]

    def test_record_defensive_refuses_unarchived_ids(self, db):
        store = archived_store(db, 1)
        report = DefensiveReport(
            threshold_lamports=100_000, defensive_ids=["b1", "ghost"]
        )
        with pytest.raises(StoreError, match="1 of 2 defensive rows"):
            store.record_defensive(report)
        # A standalone call keeps none of its rows.
        assert count(db, "defensive") == 0
        assert not db.connection.in_transaction

    def test_record_analysis_persists_both(self, db):
        store = archived_store(db, 9)

        class Report:
            """Minimal duck-typed analysis report."""

            quantified = [make_sandwich(1)]
            defensive = DefensiveReport(
                threshold_lamports=100_000, defensive_ids=["b9"]
            )

        store.record_analysis(Report())
        assert count(db, "sandwiches") == 1
        assert count(db, "defensive") == 1

    def test_record_analysis_flushes_pending_bundles_first(self, db):
        store = ArchiveBundleStore(db)
        store.add_bundles([make_bundle(1), make_bundle(2)])
        assert store.pending == 2

        class Report:
            quantified = []
            defensive = DefensiveReport(
                threshold_lamports=100_000,
                defensive_ids=["b1"],
                priority_ids=["b2"],
            )

        store.record_analysis(Report())
        assert store.pending == 0
        assert count(db, "bundles") == 2
        assert count(db, "defensive") == 2

    def test_record_analysis_advances_generation_once_per_replace(self, db):
        store = archived_store(db, 9)

        def generation():
            return db.connection.execute(
                "SELECT generation FROM analysis_generation"
            ).fetchone()[0]

        class Report:
            quantified = []
            defensive = DefensiveReport(
                threshold_lamports=100_000, defensive_ids=["b9"]
            )

        class Broken:
            quantified = []

            @property
            def defensive(self):
                raise RuntimeError("classification failed")

        assert generation() == 0
        store.record_analysis(Report())
        store.record_analysis(Report())
        assert generation() == 2
        # The failed replace rolls its generation step back too.
        with pytest.raises(RuntimeError):
            store.record_analysis(Broken())
        assert generation() == 2
        # Appends are not replaces: the seq and row-count fields cover them.
        store.record_defensive(Report.defensive)
        assert generation() == 2

    def test_record_analysis_replaces_rows_and_drops_watermark(self, db):
        store = archived_store(db, 7, 8, 9)

        class First:
            quantified = [make_sandwich(1), make_sandwich(2)]
            defensive = DefensiveReport(
                threshold_lamports=100_000,
                defensive_ids=["b7"],
                priority_ids=["b8"],
            )

        class Second:
            quantified = [make_sandwich(3)]
            defensive = DefensiveReport(
                threshold_lamports=5_000, priority_ids=["b9"]
            )

        class Broken:
            quantified = [make_sandwich(4)]

            @property
            def defensive(self):
                raise RuntimeError("classification failed")

        class Orphaned:
            quantified = []
            defensive = DefensiveReport(
                threshold_lamports=100_000, defensive_ids=["ghost"]
            )

        store.record_analysis(First())
        db.connection.execute(
            "INSERT INTO analysis_state (consumer, state) VALUES (?, ?)",
            ("analysis", "{}"),
        )
        db.connection.commit()
        # One transaction: a failure part-way leaves the first analysis.
        for failing, error in ((Broken, RuntimeError), (Orphaned, StoreError)):
            with pytest.raises(error):
                store.record_analysis(failing())
            assert count(db, "sandwiches") == 2
            assert count(db, "defensive") == 2
            assert count(db, "analysis_state") == 1

        store.record_analysis(Second())
        sandwiches = db.connection.execute(
            "SELECT bundle_id FROM sandwiches"
        ).fetchall()
        assert [row["bundle_id"] for row in sandwiches] == ["b3"]
        defensive = db.connection.execute(
            "SELECT bundle_id, classification FROM defensive"
        ).fetchall()
        assert [tuple(row) for row in defensive] == [("b9", "priority")]
        assert count(db, "analysis_state") == 0
        assert not db.connection.in_transaction


class TestReplay:
    def test_replayed_flush_that_adds_a_row_is_refused(self, db):
        archived_store(db, 1)
        replay = ArchiveBundleStore(db)
        replay.replaying = True
        replay.add_bundles([make_bundle(1), make_bundle(2, length=3)])
        with pytest.raises(StoreError, match=r"would add 4 row\(s\)"):
            replay.flush()
        assert not db.connection.in_transaction
        assert count(db, "bundles") == 1
        assert count(db, "bundle_transactions") == 1

    def test_replayed_checkpoint_is_counted_not_inserted(self, db):
        registry = MetricsRegistry()
        store = ArchiveBundleStore(db, metrics=registry)
        store.replaying = True
        assert store.save_checkpoint({"day": 1}, 1, 5.0) is None
        assert count(db, "checkpoints") == 0
        assert registry.get("archive_checkpoints_total").value() == 1
        assert registry.get("archive_last_checkpoint_sim_time").value() == 5.0


class TestCheckpointsAndTruncation:
    def test_checkpoint_flushes_first(self, db):
        store = ArchiveBundleStore(db)
        store.add_bundles([make_bundle(1)])
        store.save_checkpoint({"k": "v"}, completed_days=1, sim_time=5.0)
        assert count(db, "bundles") == 1
        assert store.latest_checkpoint() == {"k": "v"}

    def test_latest_checkpoint_none_when_empty(self, db):
        assert ArchiveBundleStore(db).latest_checkpoint() is None

    def test_latest_checkpoint_returns_most_recent(self, db):
        store = ArchiveBundleStore(db)
        store.save_checkpoint({"day": 1}, 1, 1.0)
        store.save_checkpoint({"day": 2}, 2, 2.0)
        assert store.latest_checkpoint() == {"day": 2}

    def test_truncate_after_rolls_back_late_rows(self, db):
        store = ArchiveBundleStore(db)
        store.add_bundles([make_bundle(i, length=2) for i in range(1, 5)])
        store.add_details([make_detail("t1-0"), make_detail("t2-0")])
        store.flush()
        deleted = store.truncate_after(bundle_seq=2, detail_seq=1)
        assert deleted > 0
        assert count(db, "bundles") == 2
        assert count(db, "transactions") == 1
        # Member rows of the deleted bundles must go with them.
        assert count(db, "bundle_transactions") == 4

    def test_truncate_after_drops_deleted_bundles_classifications(self, db):
        store = archived_store(db, 1, 2, 3, 4)
        store.record_defensive(
            DefensiveReport(
                threshold_lamports=100_000,
                defensive_ids=["b1", "b3"],
                priority_ids=["b2", "b4"],
            )
        )
        # Two classification rows, two member rows, two bundles.
        assert store.truncate_after(bundle_seq=2, detail_seq=0) == 6
        rows = db.connection.execute(
            "SELECT bundle_id FROM defensive ORDER BY bundle_seq"
        ).fetchall()
        assert [row[0] for row in rows] == ["b1", "b2"]

    def test_load_memory_state_preserves_insertion_order(self, tmp_path):
        path = tmp_path / "a.db"
        order = [4, 1, 3, 2]
        with ArchiveBundleStore(path) as store:
            store.add_bundles([make_bundle(i) for i in order])
        reopened = ArchiveBundleStore.resume(path)
        assert [b.bundle_id for b in reopened.bundles()] == [
            f"b{i}" for i in order
        ]

    def test_resume_round_trips_records_exactly(self, tmp_path):
        path = tmp_path / "a.db"
        bundle = make_bundle(1, length=3)
        detail = make_detail("t1-0")
        with ArchiveBundleStore(path) as store:
            store.add_bundles([bundle])
            store.add_details([detail])
        reopened = ArchiveBundleStore.resume(path)
        assert reopened.get_bundle("b1") == bundle
        assert reopened.get_detail("t1-0") == detail
