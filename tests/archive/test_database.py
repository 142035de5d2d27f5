"""Archive connection, migrations, and maintenance operations."""

import sqlite3

import pytest

from repro.archive.database import ArchiveDatabase, is_archive_path
from repro.archive.query import ArchiveQuery
from repro.archive.schema import MIGRATIONS, SCHEMA_VERSION
from repro.archive.store import ArchiveBundleStore
from repro.errors import StoreError
from tests.archive.conftest import make_bundle, make_detail


class TestMigration:
    def test_fresh_file_migrates_to_current_version(self, db):
        assert db.schema_version == SCHEMA_VERSION

    def test_reopen_is_idempotent(self, tmp_path):
        path = tmp_path / "a.db"
        ArchiveDatabase(path).close()
        with ArchiveDatabase(path) as db:
            assert db.schema_version == SCHEMA_VERSION

    def test_data_survives_reopen(self, tmp_path):
        path = tmp_path / "a.db"
        with ArchiveBundleStore(path) as store:
            store.add_bundles([make_bundle(1)])
        with ArchiveDatabase(path) as db:
            assert db.table_counts()["bundles"] == 1

    def test_newer_schema_refused(self, tmp_path):
        path = tmp_path / "a.db"
        ArchiveDatabase(path).close()
        conn = sqlite3.connect(str(path))
        conn.execute(f"PRAGMA user_version={SCHEMA_VERSION + 5}")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="newer"):
            ArchiveDatabase(path)

    def test_v1_archive_migrates_to_generation_zero(self, tmp_path):
        path = tmp_path / "v1.db"
        conn = sqlite3.connect(str(path))
        conn.executescript(MIGRATIONS[0])
        conn.execute("PRAGMA user_version=1")
        conn.commit()
        conn.close()
        # A read-only open cannot migrate, so it refuses the old file.
        with pytest.raises(StoreError, match="open it writable"):
            ArchiveDatabase(path, read_only=True)
        with ArchiveDatabase(path) as db:
            assert db.schema_version == SCHEMA_VERSION
            assert ArchiveQuery(db).watermark().analysis_generation == 0
        with ArchiveDatabase(path) as db:  # the migration ran once
            rows = db.connection.execute(
                "SELECT COUNT(*) FROM analysis_generation"
            ).fetchone()[0]
            assert rows == 1

    def test_unopenable_path_raises_store_error(self, tmp_path):
        target = tmp_path / "dir.db"
        target.mkdir()
        with pytest.raises(StoreError):
            ArchiveDatabase(target)


class TestIsArchivePath:
    def test_sqlite_file_detected_by_magic(self, db):
        assert is_archive_path(db.path)

    def test_directory_is_not_an_archive(self, tmp_path):
        assert not is_archive_path(tmp_path)

    def test_missing_path_judged_by_suffix(self, tmp_path):
        assert is_archive_path(tmp_path / "new.db")
        assert is_archive_path(tmp_path / "new.sqlite3")
        assert not is_archive_path(tmp_path / "store")
        assert not is_archive_path(tmp_path / "bundles.jsonl")

    def test_non_sqlite_file_with_db_suffix_rejected(self, tmp_path):
        fake = tmp_path / "fake.db"
        fake.write_text("not a database\n")
        assert not is_archive_path(fake)


class TestMaintenance:
    def test_max_seq_zero_when_empty(self, db):
        assert db.max_seq("bundles") == 0
        assert db.max_seq("transactions") == 0

    def test_max_seq_tracks_inserts(self, db):
        store = ArchiveBundleStore(db)
        store.add_bundles([make_bundle(1), make_bundle(2)])
        store.add_details([make_detail("t1-0")])
        store.flush()
        assert db.max_seq("bundles") == 2
        assert db.max_seq("transactions") == 1

    def test_max_seq_rejects_unknown_table(self, db):
        with pytest.raises(StoreError, match="seq"):
            db.max_seq("checkpoints; DROP TABLE bundles")

    def test_table_counts_covers_entity_tables(self, db):
        counts = db.table_counts()
        assert set(counts) == {
            "bundles",
            "bundle_transactions",
            "transactions",
            "sandwiches",
            "defensive",
            "checkpoints",
        }
        assert all(n == 0 for n in counts.values())

    def test_file_size_and_vacuum(self, db):
        store = ArchiveBundleStore(db)
        store.add_bundles([make_bundle(i) for i in range(50)])
        store.flush()
        db.checkpoint_wal()
        assert db.file_size_bytes() > 0
        db.vacuum()
        assert db.file_size_bytes() > 0

    def test_close_is_idempotent(self, tmp_path):
        db = ArchiveDatabase(tmp_path / "a.db")
        db.close()
        db.close()
