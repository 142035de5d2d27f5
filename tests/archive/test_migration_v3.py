"""Schema v3: the ``defensive`` table rebuilt keyed by ``bundle_seq``.

Each v2 archive here is made by ``MIGRATIONS[:2]`` alone and holds the
rows a v3 reference archive holds — bundles, details, detections, the
incremental watermark — with its classifications in the v2 layout. A
writable open must key every classified row by its bundle's ``seq`` and
change nothing the archive reports; a blocked or failed rebuild must
leave the file at v2 exactly as it was.
"""

import sqlite3

import pytest

from repro.archive import database as database_module
from repro.archive.database import ArchiveDatabase
from repro.archive.incremental import IncrementalAnalyzer
from repro.archive.schema import MIGRATIONS, SCHEMA_VERSION
from repro.conformance.oracle import comparable_payload
from repro.conformance.scenarios import (
    CORPUS_SCENARIOS,
    generate_rows,
    write_archive,
)
from repro.errors import StoreError
from repro.serve import ApiConfig, ArchiveApiApp

#: Tables copied verbatim from the reference: their layout is the same at
#: v2 and v3.
SHARED_TABLES = (
    "bundles",
    "bundle_transactions",
    "transactions",
    "sandwiches",
    "analysis_state",
    "analysis_generation",
)


def financials_bytes(path) -> bytes:
    """The ``/v1/financials`` body a read-only API serves for ``path``."""
    app = ArchiveApiApp(ApiConfig(db_path=path))
    app.open()
    try:
        status, payload, _headers = app.handle(
            "GET", "/v1/financials", {}, "test"
        )
    finally:
        app.close()
    assert status == 200
    return payload.content


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """A v3 archive analyzed by this build: path, payload, financials."""
    path = tmp_path_factory.mktemp("v3") / "reference.db"
    write_archive(generate_rows(CORPUS_SCENARIOS[0]), path)
    with ArchiveDatabase(path) as db:
        report = IncrementalAnalyzer(db).analyze().report
    assert report.defensive.defensive_ids and report.quantified
    return path, comparable_payload(report), financials_bytes(path)


def build_v2(reference_path, path):
    """The reference's rows in a file made by ``MIGRATIONS[:2]`` alone."""
    conn = sqlite3.connect(str(path))
    for script in MIGRATIONS[:2]:
        conn.executescript(script)
    conn.execute("PRAGMA user_version=2")
    conn.execute("DELETE FROM analysis_generation")
    conn.execute("ATTACH DATABASE ? AS ref", (str(reference_path),))
    for table in SHARED_TABLES:
        conn.execute(f"INSERT INTO {table} SELECT * FROM ref.{table}")
    conn.execute(
        "INSERT INTO defensive "
        "(bundle_id, landed_date, tip_lamports, classification) "
        "SELECT bundle_id, landed_date, tip_lamports, classification "
        "FROM ref.defensive"
    )
    conn.commit()
    conn.execute("DETACH DATABASE ref")
    conn.close()
    return path


def snapshot(path) -> dict:
    """Version, tables, ``defensive`` layout and rows, read raw."""
    conn = sqlite3.connect(str(path))
    try:
        return {
            "user_version": conn.execute(
                "PRAGMA user_version"
            ).fetchone()[0],
            "tables": sorted(
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            ),
            "columns": [
                row[1]
                for row in conn.execute("PRAGMA table_info(defensive)")
            ],
            "rows": sorted(conn.execute("SELECT * FROM defensive")),
        }
    finally:
        conn.close()


class TestV2ToV3:
    def test_every_row_is_keyed_by_its_bundle_seq(self, reference, tmp_path):
        path = build_v2(reference[0], tmp_path / "v2.db")
        before = snapshot(path)
        assert "bundle_seq" not in before["columns"]
        with ArchiveDatabase(path) as db:
            assert db.schema_version == SCHEMA_VERSION == 3
            rows = db.connection.execute(
                "SELECT d.bundle_seq, b.seq, d.landed_date, b.landed_date, "
                "d.tip_lamports, b.tip_lamports FROM defensive d "
                "JOIN bundles b ON b.bundle_id = d.bundle_id"
            ).fetchall()
        assert len(rows) == len(before["rows"])
        for row in rows:
            assert row[0] == row[1]
            assert row[2] == row[3]
            assert row[4] == row[5]

    def test_report_and_financials_unchanged(self, reference, tmp_path):
        _path, payload, financials = reference
        path = build_v2(reference[0], tmp_path / "v2.db")
        with ArchiveDatabase(path) as db:
            result = IncrementalAnalyzer(db).analyze()
        # The copied watermark covers every bundle: the report is rebuilt
        # from the migrated rows alone.
        assert result.no_op
        assert comparable_payload(result.report) == payload
        assert financials_bytes(path) == financials

    def test_orphan_row_is_refused_and_the_file_stays_v2(
        self, reference, tmp_path
    ):
        path = build_v2(reference[0], tmp_path / "v2.db")
        conn = sqlite3.connect(str(path))
        conn.execute(
            "INSERT INTO defensive VALUES "
            "('ghost', '2025-02-09', 1000, 'defensive')"
        )
        conn.commit()
        conn.close()
        before = snapshot(path)
        with pytest.raises(StoreError, match=r"stays at schema v2.*: 1$"):
            ArchiveDatabase(path)
        assert snapshot(path) == before
        assert before["user_version"] == 2

    def test_failure_inside_the_rebuild_leaves_v2(
        self, reference, tmp_path, monkeypatch
    ):
        path = build_v2(reference[0], tmp_path / "v2.db")
        before = snapshot(path)
        # Fails after the new table is filled and the old one dropped.
        failing = MIGRATIONS[2] + "\nINSERT INTO no_such_table VALUES (1);"
        monkeypatch.setattr(
            database_module, "MIGRATIONS", MIGRATIONS[:2] + (failing,)
        )
        with pytest.raises(StoreError, match="no_such_table"):
            ArchiveDatabase(path)
        assert snapshot(path) == before
        monkeypatch.undo()
        with ArchiveDatabase(path) as db:
            assert db.schema_version == 3

    def test_read_only_open_of_v2_is_refused(self, reference, tmp_path):
        path = build_v2(reference[0], tmp_path / "v2.db")
        with pytest.raises(StoreError, match="open it writable once"):
            ArchiveDatabase(path, read_only=True)
        assert snapshot(path)["user_version"] == 2
