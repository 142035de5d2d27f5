"""Connection management for the campaign archive.

One :class:`ArchiveDatabase` owns one SQLite file opened in WAL mode —
write-ahead logging keeps readers (query CLI, analysis) unblocked while the
collector's batched writer commits, which is the access pattern of a
long-running campaign with offline re-analysis.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Sequence

from repro.archive.schema import (
    MIGRATION_BLOCKERS,
    MIGRATIONS,
    SCHEMA_VERSION,
)
from repro.errors import StoreError

#: Conventional archive filename inside a campaign output directory.
ARCHIVE_FILENAME = "archive.db"


def is_archive_path(path: str | Path) -> bool:
    """Whether ``path`` looks like an archive database (vs a JSONL store).

    True for an existing file bearing the SQLite magic header, and for
    not-yet-existing paths with a ``.db`` / ``.sqlite`` / ``.sqlite3``
    suffix (so a fresh campaign can name its archive before it exists).
    """
    path = Path(path)
    if path.is_file():
        try:
            with path.open("rb") as handle:
                return handle.read(16) == b"SQLite format 3\x00"
        except OSError:
            return False
    if path.is_dir():
        return False
    return path.suffix.lower() in {".db", ".sqlite", ".sqlite3"}


class ArchiveDatabase:
    """A migrated, WAL-mode SQLite handle plus maintenance operations.

    ``read_only=True`` opens an existing, already-migrated file via SQLite's
    ``mode=ro`` URI — no directory creation, no migrations, no writes. This
    is how parallel analysis workers attach: many read-only connections can
    scan a WAL-mode archive concurrently without ever taking a write lock.
    """

    def __init__(self, path: str | Path, read_only: bool = False) -> None:
        self._path = Path(path)
        self._read_only = read_only
        try:
            if read_only:
                self._conn = sqlite3.connect(
                    f"file:{self._path}?mode=ro", uri=True
                )
            else:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                self._conn = sqlite3.connect(str(self._path))
        except (OSError, sqlite3.Error) as exc:
            raise StoreError(f"cannot open archive {path}: {exc}") from exc
        self._conn.row_factory = sqlite3.Row
        try:
            if read_only:
                version = self._conn.execute(
                    "PRAGMA user_version"
                ).fetchone()[0]
                if version != SCHEMA_VERSION:
                    raise StoreError(
                        f"read-only archive {self._path} is schema "
                        f"v{version}; this build needs v{SCHEMA_VERSION} "
                        "(open it writable once to migrate)"
                    )
                return
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA foreign_keys=ON")
            self._migrate()
        except sqlite3.Error as exc:
            # A truncated or non-SQLite file connects fine but explodes on
            # the first statement; surface that as our own error type.
            self._conn.close()
            raise StoreError(
                f"archive {self._path} is unreadable or corrupt: {exc}"
            ) from exc
        except StoreError:
            self._conn.close()
            raise

    @property
    def path(self) -> Path:
        """Location of the SQLite file."""
        return self._path

    @property
    def read_only(self) -> bool:
        """Whether this handle was opened with ``mode=ro``."""
        return self._read_only

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying connection (row factory: :class:`sqlite3.Row`)."""
        return self._conn

    def tuples(self, sql: str, params: Sequence = ()) -> sqlite3.Cursor:
        """Execute ``sql`` on a cursor that yields plain tuples.

        The positional decoders in :mod:`repro.archive.schema` read every
        bulk row through this: a tuple is cheaper to build and to unpack
        than the connection's by-name :class:`sqlite3.Row`.
        """
        cursor = self._conn.cursor()
        cursor.row_factory = None
        return cursor.execute(sql, params)

    def _migrate(self) -> None:
        """Upgrade the file one version at a time.

        Each step and its ``user_version`` bump commit together: a step
        that fails part-way, or that finds rows blocking it, leaves the
        file at the version it had before that step.
        """
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        if version > SCHEMA_VERSION:
            raise StoreError(
                f"archive {self._path} is schema v{version}, newer than "
                f"this build's v{SCHEMA_VERSION}"
            )
        while version < SCHEMA_VERSION:
            blocker = MIGRATION_BLOCKERS.get(version)
            if blocker is not None:
                sql, what = blocker
                count = self._conn.execute(sql).fetchone()[0]
                if count:
                    raise StoreError(
                        f"archive {self._path} stays at schema v{version}: "
                        f"{what}: {count}"
                    )
            try:
                self._conn.executescript(
                    f"BEGIN;\n{MIGRATIONS[version]}\n"
                    f"PRAGMA user_version={version + 1};\nCOMMIT;"
                )
            except sqlite3.Error:
                if self._conn.in_transaction:
                    self._conn.rollback()
                raise
            version += 1

    @property
    def schema_version(self) -> int:
        """The file's current ``PRAGMA user_version``."""
        return self._conn.execute("PRAGMA user_version").fetchone()[0]

    # --- maintenance -------------------------------------------------------

    def table_counts(self) -> dict[str, int]:
        """Row counts per entity table (the ``repro archive stats`` body)."""
        tables = (
            "bundles",
            "bundle_transactions",
            "transactions",
            "sandwiches",
            "defensive",
            "checkpoints",
        )
        return {
            table: self._conn.execute(
                f"SELECT COUNT(*) FROM {table}"
            ).fetchone()[0]
            for table in tables
        }

    def max_seq(self, table: str) -> int:
        """Highest ``seq`` in an AUTOINCREMENT table (0 when empty)."""
        if table not in {"bundles", "transactions", "sandwiches"}:
            raise StoreError(f"table {table!r} has no seq column")
        row = self._conn.execute(f"SELECT MAX(seq) FROM {table}").fetchone()
        return row[0] or 0

    def file_size_bytes(self) -> int:
        """On-disk size of the main database file."""
        try:
            return self._path.stat().st_size
        except OSError:
            return 0

    def vacuum(self) -> None:
        """Reclaim free pages (after truncation or bulk deletes)."""
        self._conn.commit()
        self._conn.execute("VACUUM")

    def checkpoint_wal(self) -> None:
        """Fold the write-ahead log back into the main file."""
        self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def close(self) -> None:
        """Commit and close the connection (idempotent)."""
        try:
            self._conn.commit()
            self._conn.close()
        except sqlite3.Error:  # pragma: no cover - already closed
            pass

    def __enter__(self) -> "ArchiveDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
