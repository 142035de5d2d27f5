"""The archive-backed bundle store: a batched, indexed drop-in writer.

:class:`ArchiveBundleStore` implements the full :class:`BundleStore`
interface, so the poller and detail fetcher write through it unchanged,
while every insert is also queued for the SQLite archive. Pending rows are
committed in one transaction whenever the buffer reaches
:data:`FLUSH_MAX_PENDING` records, the bound on what a crash can lose, and
always on checkpoint save and close.
"""

from __future__ import annotations

from pathlib import Path

from repro.archive.database import ArchiveDatabase
from repro.archive.query import ArchiveQuery
from repro.archive.schema import (
    bundle_to_row,
    detail_to_row,
    sandwich_to_row,
)
from repro.collector.store import BundleStore
from repro.core.defensive import DefensiveReport
from repro.core.quantify import QuantifiedSandwich
from repro.errors import StoreError
from repro.explorer.models import BundleRecord, TransactionRecord
from repro.obs.registry import MetricsRegistry
from repro.utils.serialization import decode_json, encode_json_sorted

_INSERT_BUNDLE = (
    "INSERT OR IGNORE INTO bundles "
    "(bundle_id, slot, landed_at, landed_date, tip_lamports, "
    "num_transactions, transaction_ids) VALUES (?,?,?,?,?,?,?)"
)
_INSERT_MEMBER = (
    "INSERT OR IGNORE INTO bundle_transactions "
    "(transaction_id, bundle_id, position) VALUES (?,?,?)"
)
_INSERT_DETAIL = (
    "INSERT OR IGNORE INTO transactions "
    "(transaction_id, slot, block_time, signer, signers, fee_lamports, "
    "token_deltas, lamport_deltas, events) VALUES (?,?,?,?,?,?,?,?,?)"
)
_INSERT_SANDWICH = (
    "INSERT OR REPLACE INTO sandwiches "
    "(bundle_id, slot, landed_at, landed_date, tip_lamports, attacker, "
    "victim, quote_mint, involves_sol, victim_loss_quote, "
    "attacker_gain_quote, victim_loss_usd, attacker_gain_usd, legs) "
    "VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?)"
)
#: One classified id's row, its key, date and tip copied from ``bundles``.
_INSERT_DEFENSIVE = (
    "INSERT OR REPLACE INTO defensive "
    "(bundle_seq, bundle_id, landed_date, tip_lamports, classification) "
    "SELECT seq, bundle_id, landed_date, tip_lamports, ? FROM bundles "
    "WHERE bundle_id = ?"
)

#: Records (bundles plus details) buffered before the writer commits them:
#: at most this many collected records can be lost to a crash.
FLUSH_MAX_PENDING = 256


class ArchiveBundleStore(BundleStore):
    """A :class:`BundleStore` that mirrors every insert into the archive.

    The in-memory indexes stay authoritative for reads (analysis code is
    unchanged); the SQLite file is the durable, queryable mirror. Writes
    are batched and committed in insertion order, so the archive's ``seq``
    order always equals collection order.

    While :attr:`replaying` is set, every write must already be archived:
    a resumed campaign replays collection into an archive that holds what
    the replay collects, so a flush that would add a row is refused and a
    checkpoint is counted without a new row.
    """

    def __init__(
        self,
        database: ArchiveDatabase | str | Path,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(metrics=metrics)
        self.database = (
            database
            if isinstance(database, ArchiveDatabase)
            else ArchiveDatabase(database)
        )
        self.replaying = False
        self._pending_bundles: list[BundleRecord] = []
        self._pending_details: list[TransactionRecord] = []
        self._rows_metric = self.metrics.counter(
            "archive_rows_written_total",
            "Rows committed to the archive, by table.",
        )
        self._flushes_metric = self.metrics.counter(
            "archive_flushes_total",
            "Batched-writer commits, by trigger.",
        )
        self._batch_metric = self.metrics.histogram(
            "archive_flush_batch_size",
            "Records committed per flush.",
            buckets=(1, 8, 64, 256, 1_024, 8_192),
        )
        self._checkpoint_metric = self.metrics.counter(
            "archive_checkpoints_total", "Campaign checkpoints saved."
        )
        self._checkpoint_time_gauge = self.metrics.gauge(
            "archive_last_checkpoint_sim_time",
            "Sim time of the most recent campaign checkpoint.",
        )

    # --- write path --------------------------------------------------------

    @property
    def pending(self) -> int:
        """Records buffered but not yet committed."""
        return len(self._pending_bundles) + len(self._pending_details)

    def add_bundles(self, records: list[BundleRecord]) -> int:
        """Insert, queue the genuinely new records, and maybe flush."""
        new_records = [
            record
            for record in records
            if self.get_bundle(record.bundle_id) is None
        ]
        added = super().add_bundles(records)
        self._pending_bundles.extend(new_records)
        self._maybe_flush()
        return added

    def add_details(self, records: list[TransactionRecord]) -> int:
        """Insert, queue the genuinely new details, and maybe flush."""
        new_records = [
            record
            for record in records
            if self.get_detail(record.transaction_id) is None
        ]
        added = super().add_details(records)
        self._pending_details.extend(new_records)
        self._maybe_flush()
        return added

    def _maybe_flush(self) -> None:
        if self.pending >= FLUSH_MAX_PENDING:
            self.flush(trigger="policy")

    def flush(self, trigger: str = "explicit") -> int:
        """Commit all pending records in one transaction; returns how many.

        Raises:
            StoreError: while :attr:`replaying`, when a pending row is not
                yet archived; the flush is rolled back first.
        """
        count = self.pending
        if count == 0:
            return 0
        conn = self.database.connection
        added = conn.executemany(
            _INSERT_BUNDLE,
            [bundle_to_row(r) for r in self._pending_bundles],
        ).rowcount
        added += conn.executemany(
            _INSERT_MEMBER,
            [
                (tx_id, record.bundle_id, position)
                for record in self._pending_bundles
                for position, tx_id in enumerate(record.transaction_ids)
            ],
        ).rowcount
        added += conn.executemany(
            _INSERT_DETAIL,
            [detail_to_row(r) for r in self._pending_details],
        ).rowcount
        if added and self.replaying:
            conn.rollback()
            raise StoreError(
                f"replayed collection would add {added} row(s) the archive "
                "does not hold; it does not match its checkpoint"
            )
        conn.commit()
        self._rows_metric.inc(len(self._pending_bundles), table="bundles")
        self._rows_metric.inc(
            len(self._pending_details), table="transactions"
        )
        self._flushes_metric.inc(trigger=trigger)
        self._batch_metric.observe(count)
        self._pending_bundles.clear()
        self._pending_details.clear()
        return count

    def close(self) -> None:
        """Flush pending rows and close the database."""
        self.flush(trigger="close")
        self.database.close()

    def __enter__(self) -> "ArchiveBundleStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --- analysis outputs --------------------------------------------------

    def _write_rows(self, sql: str, rows: list[tuple], table: str) -> int:
        """Insert ``rows``; commit unless a caller's transaction is open.

        :meth:`record_analysis` opens one with its deletes and commits the
        inserts with them; a standalone call commits its own rows. Raises
        :class:`StoreError`, with nothing of a standalone call kept, when
        an ``INSERT … SELECT`` finds no source row for some of ``rows``.
        """
        conn = self.database.connection
        nested = conn.in_transaction
        written = conn.executemany(sql, rows).rowcount
        if written != len(rows):
            if not nested:
                conn.rollback()
            raise StoreError(
                f"{len(rows) - written} of {len(rows)} {table} rows name "
                "no archived bundle"
            )
        if not nested:
            conn.commit()
        self._rows_metric.inc(len(rows), table=table)
        return len(rows)

    def record_sandwiches(self, quantified: list[QuantifiedSandwich]) -> int:
        """Persist detection rows (idempotent per bundle id)."""
        return self._write_rows(
            _INSERT_SANDWICH,
            [sandwich_to_row(q) for q in quantified],
            "sandwiches",
        )

    def record_defensive(self, report: DefensiveReport) -> int:
        """Persist defensive/priority classification rows; returns the count.

        Each row copies its key (``bundle_seq``), date and tip from the
        id's ``bundles`` row. Raises :class:`StoreError` when an id has no
        such row (still in a write buffer, or never collected).
        """
        rows = [("defensive", bundle_id) for bundle_id in report.defensive_ids]
        rows.extend(
            ("priority", bundle_id) for bundle_id in report.priority_ids
        )
        return self._write_rows(_INSERT_DEFENSIVE, rows, "defensive")

    def record_analysis(self, report) -> None:
        """Replace the archive's analysis with one whole-archive pass's.

        Flushes the write buffer first, so every bundle the analysis names
        is committed before its analysis rows. Then deletes every sandwich
        and defensive row and the incremental watermark, and inserts
        ``report``'s detections and classifications, in one transaction:
        rows judged under another detector spec never mix with these, and
        the next incremental pass starts over from ``seq`` 0. The same
        transaction advances the analysis generation, which the serving
        watermark reads: a pass that only reclassifies bundles moves no
        ``seq`` and no row count. The analysis pipeline calls this by duck
        type on any store that offers it, keeping :mod:`repro.core` free
        of archive imports.
        """
        self.flush(trigger="analysis")
        conn = self.database.connection
        with conn:  # commits on success, rolls every statement back on error
            for table in ("sandwiches", "defensive", "analysis_state"):
                conn.execute(f"DELETE FROM {table}")
            conn.execute(
                "UPDATE analysis_generation SET generation = generation + 1"
            )
            self.record_sandwiches(report.quantified)
            self.record_defensive(report.defensive)

    # --- checkpoints -------------------------------------------------------

    def save_checkpoint(
        self, payload: dict, completed_days: int, sim_time: float
    ) -> int | None:
        """Flush, then persist a campaign checkpoint; returns its id.

        The flush-first ordering makes every checkpoint self-consistent: a
        checkpoint row never references collected data that is still
        sitting in the write buffer. While :attr:`replaying`, the archive
        already holds the checkpoint: it is counted, no row is inserted,
        and None is returned.
        """
        self.flush(trigger="checkpoint")
        checkpoint_id = None
        if not self.replaying:
            conn = self.database.connection
            checkpoint_id = conn.execute(
                "INSERT INTO checkpoints "
                "(created_sim_time, completed_days, payload) VALUES (?,?,?)",
                (sim_time, completed_days, encode_json_sorted(payload)),
            ).lastrowid
            conn.commit()
        self._checkpoint_metric.inc()
        self._checkpoint_time_gauge.set(sim_time)
        return checkpoint_id

    def latest_checkpoint(self) -> dict | None:
        """The most recent checkpoint payload, or None."""
        row = self.database.connection.execute(
            "SELECT payload FROM checkpoints "
            "ORDER BY checkpoint_id DESC LIMIT 1"
        ).fetchone()
        return decode_json(row["payload"]) if row else None

    def truncate_after(self, bundle_seq: int, detail_seq: int) -> int:
        """Delete rows written after a checkpoint's high-water marks.

        Used on resume: a killed campaign keeps writing between its last
        checkpoint and the crash, and those post-checkpoint rows must be
        rolled back before the run continues, so the resumed run
        re-collects them on the same schedule as an uninterrupted one. The
        deleted bundles' classification rows go with them: a re-collected
        bundle gets a new ``seq``, and its old row would be counted beside
        the new one.
        Returns rows deleted.
        """
        conn = self.database.connection
        deleted = conn.execute(
            "DELETE FROM defensive WHERE bundle_seq > ?", (bundle_seq,)
        ).rowcount
        stale_bundles = conn.execute(
            "SELECT bundle_id FROM bundles WHERE seq > ?", (bundle_seq,)
        ).fetchall()
        for row in stale_bundles:
            cursor = conn.execute(
                "DELETE FROM bundle_transactions WHERE bundle_id = ?",
                (row["bundle_id"],),
            )
            deleted += cursor.rowcount
        for table, seq in (
            ("bundles", bundle_seq),
            ("transactions", detail_seq),
        ):
            cursor = conn.execute(
                f"DELETE FROM {table} WHERE seq > ?", (seq,)
            )
            deleted += cursor.rowcount
        conn.commit()
        return deleted

    # --- loading -----------------------------------------------------------

    def load_memory_state(self) -> None:
        """Populate the in-memory indexes from the archive, in seq order.

        ``seq`` order equals original insertion order, so the rebuilt
        in-memory store iterates identically to the store that wrote the
        archive — a prerequisite for byte-identical resumed analysis.
        """
        query = ArchiveQuery(self.database)
        # Parent-class inserts only: nothing is re-queued for the archive.
        BundleStore.add_bundles(self, query.bundles())
        BundleStore.add_details(self, query.details())

    @classmethod
    def resume(
        cls,
        database: ArchiveDatabase | str | Path,
        metrics: MetricsRegistry | None = None,
    ) -> "ArchiveBundleStore":
        """Reopen an archive, loading everything written so far."""
        store = cls(database, metrics=metrics)
        store.load_memory_state()
        return store
