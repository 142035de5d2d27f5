"""Batched archive writer: flush policy, dedup, truncation, reload."""

import pytest

from repro.archive.store import ArchiveBundleStore, FlushPolicy
from repro.core.defensive import DefensiveReport
from repro.errors import ConfigError
from repro.obs.registry import MetricsRegistry
from tests.archive.conftest import make_bundle, make_detail, make_sandwich


def count(db, table: str) -> int:
    return db.connection.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]


class TestFlushPolicy:
    def test_rejects_nonpositive_max_pending(self):
        with pytest.raises(ConfigError):
            FlushPolicy(max_pending=0).validate()

    def test_buffers_until_threshold(self, db):
        store = ArchiveBundleStore(db, flush_policy=FlushPolicy(10))
        store.add_bundles([make_bundle(1), make_bundle(2)])
        assert store.pending == 2
        assert count(db, "bundles") == 0

    def test_policy_triggers_commit(self, db):
        store = ArchiveBundleStore(db, flush_policy=FlushPolicy(3))
        store.add_bundles([make_bundle(i) for i in range(3)])
        assert store.pending == 0
        assert count(db, "bundles") == 3

    def test_details_count_toward_threshold(self, db):
        store = ArchiveBundleStore(db, flush_policy=FlushPolicy(2))
        store.add_bundles([make_bundle(1)])
        store.add_details([make_detail("t1-0")])
        assert store.pending == 0
        assert count(db, "transactions") == 1

    def test_write_through_at_max_pending_one(self, db):
        store = ArchiveBundleStore(db, flush_policy=FlushPolicy(1))
        store.add_bundles([make_bundle(1)])
        assert count(db, "bundles") == 1

    def test_explicit_flush_returns_rows_written(self, db):
        store = ArchiveBundleStore(db, flush_policy=FlushPolicy(100))
        store.add_bundles([make_bundle(1), make_bundle(2)])
        assert store.flush() == 2
        assert store.flush() == 0

    def test_close_flushes(self, tmp_path):
        path = tmp_path / "a.db"
        with ArchiveBundleStore(path, flush_policy=FlushPolicy(100)) as store:
            store.add_bundles([make_bundle(1)])
        assert count(ArchiveBundleStore.resume(path).database, "bundles") == 1


class TestWritePath:
    def test_duplicates_not_requeued(self, db):
        store = ArchiveBundleStore(db, flush_policy=FlushPolicy(100))
        store.add_bundles([make_bundle(1)])
        store.add_bundles([make_bundle(1), make_bundle(2)])
        assert store.pending == 2
        store.flush()
        assert count(db, "bundles") == 2

    def test_member_rows_written_per_transaction(self, db):
        store = ArchiveBundleStore(db, flush_policy=FlushPolicy(1))
        store.add_bundles([make_bundle(1, length=3)])
        assert count(db, "bundle_transactions") == 3

    def test_in_memory_reads_unaffected_by_buffering(self, db):
        store = ArchiveBundleStore(db, flush_policy=FlushPolicy(100))
        store.add_bundles([make_bundle(1)])
        assert store.get_bundle("b1") is not None

    def test_write_metrics_recorded(self, db):
        registry = MetricsRegistry()
        store = ArchiveBundleStore(
            db, flush_policy=FlushPolicy(2), metrics=registry
        )
        store.add_bundles([make_bundle(1), make_bundle(2)])
        store.add_bundles([make_bundle(3)])
        store.flush()
        rows = registry.get("archive_rows_written_total")
        assert rows.value(table="bundles") == 3
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
        store = ArchiveBundleStore(db)
        report = DefensiveReport(
            threshold_lamports=100_000,
            defensive=[make_bundle(1), make_bundle(2)],
            priority=[make_bundle(3)],
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

    def test_record_analysis_persists_both(self, db):
        store = ArchiveBundleStore(db)

        class Report:
            """Minimal duck-typed analysis report."""

            quantified = [make_sandwich(1)]
            defensive = DefensiveReport(
                threshold_lamports=100_000, defensive=[make_bundle(9)]
            )

        store.record_analysis(Report())
        assert count(db, "sandwiches") == 1
        assert count(db, "defensive") == 1

    def test_record_analysis_advances_generation_once_per_replace(self, db):
        store = ArchiveBundleStore(db)

        def generation():
            return db.connection.execute(
                "SELECT generation FROM analysis_generation"
            ).fetchone()[0]

        class Report:
            quantified = []
            defensive = DefensiveReport(
                threshold_lamports=100_000, defensive=[make_bundle(9)]
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
        store = ArchiveBundleStore(db)

        class First:
            quantified = [make_sandwich(1), make_sandwich(2)]
            defensive = DefensiveReport(
                threshold_lamports=100_000,
                defensive=[make_bundle(7)],
                priority=[make_bundle(8)],
            )

        class Second:
            quantified = [make_sandwich(3)]
            defensive = DefensiveReport(
                threshold_lamports=5_000, priority=[make_bundle(9)]
            )

        class Broken:
            quantified = [make_sandwich(4)]

            @property
            def defensive(self):
                raise RuntimeError("classification failed")

        store.record_analysis(First())
        db.connection.execute(
            "INSERT INTO analysis_state (consumer, state) VALUES (?, ?)",
            ("analysis", "{}"),
        )
        db.connection.commit()
        # One transaction: a failure part-way leaves the first analysis.
        with pytest.raises(RuntimeError):
            store.record_analysis(Broken())
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


class TestCheckpointsAndTruncation:
    def test_checkpoint_flushes_first(self, db):
        store = ArchiveBundleStore(db, flush_policy=FlushPolicy(100))
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
        store = ArchiveBundleStore(db, flush_policy=FlushPolicy(1))
        store.add_bundles([make_bundle(i, length=2) for i in range(1, 5)])
        store.add_details([make_detail("t1-0"), make_detail("t2-0")])
        deleted = store.truncate_after(bundle_seq=2, detail_seq=1)
        assert deleted > 0
        assert count(db, "bundles") == 2
        assert count(db, "transactions") == 1
        # Member rows of the deleted bundles must go with them.
        assert count(db, "bundle_transactions") == 4

    def test_load_memory_state_preserves_insertion_order(self, tmp_path):
        path = tmp_path / "a.db"
        order = [4, 1, 3, 2]
        with ArchiveBundleStore(path, flush_policy=FlushPolicy(1)) as store:
            store.add_bundles([make_bundle(i) for i in order])
        reopened = ArchiveBundleStore.resume(path)
        assert [b.bundle_id for b in reopened.bundles()] == [
            f"b{i}" for i in order
        ]

    def test_resume_round_trips_records_exactly(self, tmp_path):
        path = tmp_path / "a.db"
        bundle = make_bundle(1, length=3)
        detail = make_detail("t1-0")
        with ArchiveBundleStore(path, flush_policy=FlushPolicy(1)) as store:
            store.add_bundles([bundle])
            store.add_details([detail])
        reopened = ArchiveBundleStore.resume(path)
        assert reopened.get_bundle("b1") == bundle
        assert reopened.get_detail("t1-0") == detail
