"""The archive's typed query API.

:class:`ArchiveQuery` answers the questions re-measurement studies ask of
an archived campaign — "which bundles landed in this slot range", "what did
this attacker extract per day", "how are tips distributed" — directly from
the indexed SQLite file, without loading the whole campaign into memory.

Filters are plain dataclasses compiled to parameterized SQL (never string
interpolation of values), ordering is restricted to indexed columns, and
every query records its wall-clock latency in the
``archive_query_seconds`` histogram.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import starmap
from typing import Iterator, Sequence

from repro.archive.database import ArchiveDatabase
from repro.archive.schema import (
    BUNDLE_COLUMNS,
    DETAIL_COLUMNS,
    SANDWICH_COLUMNS,
    bundle_from_columns,
    detail_from_columns,
    sandwich_from_columns,
)
from repro.core.defensive import DefensiveReport
from repro.core.quantify import QuantifiedSandwich
from repro.errors import ConfigError
from repro.explorer.models import BundleRecord, TransactionRecord
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

#: Select lists of the decoded columns, bare and qualified for joins.
_BUNDLES = ", ".join(BUNDLE_COLUMNS)
_B_BUNDLES = ", ".join(f"b.{column}" for column in BUNDLE_COLUMNS)
_DETAILS = ", ".join(DETAIL_COLUMNS)
_T_DETAILS = ", ".join(f"t.{column}" for column in DETAIL_COLUMNS)
_SANDWICHES = ", ".join(SANDWICH_COLUMNS)

#: Columns ``order_by`` may name, per entity.
BUNDLE_ORDER_COLUMNS = frozenset(
    {"seq", "slot", "landed_at", "tip_lamports", "num_transactions"}
)
SANDWICH_ORDER_COLUMNS = frozenset(
    {"seq", "slot", "landed_at", "tip_lamports", "victim_loss_usd"}
)


@dataclass(frozen=True)
class BundleFilter:
    """Conjunctive filters over the ``bundles`` table (None = no bound)."""

    slot_min: int | None = None
    slot_max: int | None = None
    length: int | None = None
    tip_min: int | None = None
    tip_max: int | None = None
    date_from: str | None = None
    date_to: str | None = None

    def compile(self) -> tuple[str, list]:
        """The WHERE clause (without the keyword) and its parameters."""
        clauses: list[str] = []
        params: list = []
        for column, op, value in (
            ("slot", ">=", self.slot_min),
            ("slot", "<=", self.slot_max),
            ("num_transactions", "=", self.length),
            ("tip_lamports", ">=", self.tip_min),
            ("tip_lamports", "<=", self.tip_max),
            ("landed_date", ">=", self.date_from),
            ("landed_date", "<=", self.date_to),
        ):
            if value is not None:
                clauses.append(f"{column} {op} ?")
                params.append(value)
        return (" AND ".join(clauses) or "1=1", params)


@dataclass(frozen=True)
class SandwichFilter:
    """Conjunctive filters over the ``sandwiches`` table."""

    attacker: str | None = None
    victim: str | None = None
    slot_min: int | None = None
    slot_max: int | None = None
    date_from: str | None = None
    date_to: str | None = None
    priced_only: bool = False

    def compile(self) -> tuple[str, list]:
        """The WHERE clause (without the keyword) and its parameters."""
        clauses: list[str] = []
        params: list = []
        for column, op, value in (
            ("attacker", "=", self.attacker),
            ("victim", "=", self.victim),
            ("slot", ">=", self.slot_min),
            ("slot", "<=", self.slot_max),
            ("landed_date", ">=", self.date_from),
            ("landed_date", "<=", self.date_to),
        ):
            if value is not None:
                clauses.append(f"{column} {op} ?")
                params.append(value)
        if self.priced_only:
            clauses.append("victim_loss_usd IS NOT NULL")
        return (" AND ".join(clauses) or "1=1", params)


@dataclass(frozen=True)
class BundleKey:
    """A projected bundle row: index columns only, no payload parse.

    Slot-range scans that need ids, slots, or lengths — chunk planning,
    coverage checks, count-by-length summaries — previously paid a JSON
    ``transaction_ids`` deserialization per row for data they never read.
    This projection selects only indexed scalar columns.
    """

    seq: int
    bundle_id: str
    slot: int
    landed_at: float
    tip_lamports: int
    num_transactions: int


@dataclass(frozen=True)
class ArchiveWatermark:
    """The archive's read-side version: how much data any reader can see.

    A watermark is the tuple of high-water ``seq`` values of the appended
    tables, the defensive row count (that table has no sequence), and the
    analysis generation, which every whole-archive replacement of the
    stored analysis advances. Two reads of an archive return identical
    results iff their watermarks are equal, which is what the serving
    tier's response cache keys on: the token changes when the collector
    lands new rows, an incremental analysis pass appends detections, or a
    full pass replaces the analysis — even one that only moves bundles
    between the defensive and priority classes.
    """

    bundle_seq: int
    transaction_seq: int
    sandwich_seq: int
    defensive_rows: int
    analysis_generation: int

    @property
    def token(self) -> str:
        """Compact opaque form, embedded in ETags and cache keys."""
        return (
            f"b{self.bundle_seq}.t{self.transaction_seq}."
            f"s{self.sandwich_seq}.d{self.defensive_rows}."
            f"g{self.analysis_generation}"
        )


@dataclass(frozen=True)
class ArchiveChunk:
    """One bounded, contiguous slice of the ``bundles`` table.

    Chunks partition the archive by the ``seq`` primary key (collection
    order), so every bundle falls in exactly one chunk and concatenating
    chunks in ``index`` order reproduces a full sequential scan. The slot
    bounds are carried for display and slot-range bookkeeping; ``seq``
    bounds are what workers query by (indexed, skew-free).
    """

    index: int
    seq_lo: int
    seq_hi: int
    count: int
    slot_lo: int
    slot_hi: int


#: Ids per ``IN (...)`` batch — comfortably under every SQLite build's
#: bound-variable limit (999 on the oldest supported builds).
_IN_BATCH = 900


def _in_batches(
    values: Sequence[str], size: int = _IN_BATCH
) -> Iterator[Sequence[str]]:
    """Slice a value list into ``IN``-clause-sized batches."""
    values = list(values)
    for start in range(0, len(values), size):
        yield values[start : start + size]


def _order_clause(
    order_by: str, descending: bool, allowed: frozenset[str]
) -> str:
    """ORDER BY with a ``seq`` tiebreaker, so pagination is total-ordered.

    SQL leaves the order of rows with equal sort keys unspecified, which
    would let a row slip between two pages of a paginated scan. Every
    non-``seq`` ordering therefore breaks ties on ``seq`` in the same
    direction — within a tie, ascending reads come back in collection
    order, exactly the order the serial pipeline consumes bundles in.
    """
    if order_by not in allowed:
        raise ConfigError(
            f"cannot order by {order_by!r}; "
            f"indexed columns are {sorted(allowed)}"
        )
    direction = "DESC" if descending else "ASC"
    clause = f" ORDER BY {order_by} {direction}"
    if order_by != "seq":
        clause += f", seq {direction}"
    return clause


def _page_clause(limit: int | None, offset: int) -> tuple[str, list]:
    if limit is not None and limit < 0:
        raise ConfigError("limit must be >= 0")
    if offset < 0:
        raise ConfigError("offset must be >= 0")
    if limit is None and offset == 0:
        return "", []
    return " LIMIT ? OFFSET ?", [-1 if limit is None else limit, offset]


class ArchiveQuery:
    """Read-side API over one archive database."""

    def __init__(
        self,
        database: ArchiveDatabase,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._db = database
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._latency_metric = self.metrics.histogram(
            "archive_query_seconds",
            "Wall-clock latency of archive queries, by query name.",
            buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
        )

    def _timed(
        self, name: str, sql: str, params: list, tuples: bool = False
    ) -> list:
        """Run one query and record its latency under ``name``.

        Rows are :class:`sqlite3.Row` (read by column name) unless
        ``tuples``: then plain tuples, what the positional decoders and
        the columnar block builders unpack.
        """
        started = time.perf_counter()
        cursor = (
            self._db.tuples(sql, params)
            if tuples
            else self._db.connection.execute(sql, params)
        )
        rows = cursor.fetchall()
        self._latency_metric.observe(
            time.perf_counter() - started, query=name
        )
        return rows

    # --- bundles -----------------------------------------------------------

    def bundles(
        self,
        where: BundleFilter | None = None,
        order_by: str = "seq",
        descending: bool = False,
        limit: int | None = None,
        offset: int = 0,
    ) -> list[BundleRecord]:
        """Filtered, ordered, paginated bundle records."""
        where = where or BundleFilter()
        clause, params = where.compile()
        page, page_params = _page_clause(limit, offset)
        sql = (
            f"SELECT {_BUNDLES} FROM bundles WHERE {clause}"
            + _order_clause(order_by, descending, BUNDLE_ORDER_COLUMNS)
            + page
        )
        rows = self._timed("bundles", sql, params + page_params, tuples=True)
        return list(starmap(bundle_from_columns, rows))

    def bundle_range(self, seq_lo: int, seq_hi: int) -> list[BundleRecord]:
        """Bundle records with ``seq_lo <= seq <= seq_hi``, in ``seq`` order.

        The object engine's chunk load and the serial incremental delta
        read their bundles through this.
        """
        rows = self._timed(
            "bundle_range",
            f"SELECT {_BUNDLES} FROM bundles "
            "WHERE seq >= ? AND seq <= ? ORDER BY seq",
            [seq_lo, seq_hi],
            tuples=True,
        )
        return list(starmap(bundle_from_columns, rows))

    def bundle_index(
        self,
        where: BundleFilter | None = None,
        limit: int | None = None,
        offset: int = 0,
    ) -> list[BundleKey]:
        """Projected bundle rows in ``seq`` order, skipping payload parse.

        Use this instead of :meth:`bundles` when only ids/slots/lengths are
        needed: no ``transaction_ids`` JSON is deserialized, which is the
        dominant cost of wide slot-range scans.
        """
        where = where or BundleFilter()
        clause, params = where.compile()
        page, page_params = _page_clause(limit, offset)
        rows = self._timed(
            "bundle_index",
            "SELECT seq, bundle_id, slot, landed_at, tip_lamports, "
            f"num_transactions FROM bundles WHERE {clause} ORDER BY seq"
            + page,
            params + page_params,
        )
        return [
            BundleKey(
                seq=row["seq"],
                bundle_id=row["bundle_id"],
                slot=row["slot"],
                landed_at=row["landed_at"],
                tip_lamports=row["tip_lamports"],
                num_transactions=row["num_transactions"],
            )
            for row in rows
        ]

    def iter_chunks(
        self,
        chunk_size: int = 2_048,
        where: BundleFilter | None = None,
        seq_min: int | None = None,
    ) -> Iterator[ArchiveChunk]:
        """Stream bounded chunk descriptors over the bundle table.

        A keyset cursor walks the ``seq`` primary key in ``chunk_size``
        steps (optionally restricted by a filter and/or to ``seq >
        seq_min``, the incremental analyzer's watermark), yielding one
        :class:`ArchiveChunk` per slice. Only projected index columns are
        read — planning a 50k-bundle archive touches no JSON payloads and
        never materializes more than one chunk's keys at a time.
        """
        if chunk_size < 1:
            raise ConfigError("chunk_size must be >= 1")
        where = where or BundleFilter()
        clause, params = where.compile()
        cursor = seq_min if seq_min is not None else 0
        index = 0
        while True:
            rows = self._timed(
                "iter_chunks",
                "SELECT seq, slot FROM bundles "
                f"WHERE seq > ? AND {clause} ORDER BY seq LIMIT ?",
                [cursor] + params + [chunk_size],
            )
            if not rows:
                return
            seqs = [row["seq"] for row in rows]
            slots = [row["slot"] for row in rows]
            yield ArchiveChunk(
                index=index,
                seq_lo=seqs[0],
                seq_hi=seqs[-1],
                count=len(rows),
                slot_lo=min(slots),
                slot_hi=max(slots),
            )
            cursor = seqs[-1]
            index += 1

    def chunk_bounds(
        self,
        chunk_size: int = 2_048,
        where: BundleFilter | None = None,
        seq_min: int | None = None,
    ) -> list[ArchiveChunk]:
        """The whole chunk plan in one window-function pass.

        Produces exactly the chunks :meth:`iter_chunks` yields (same
        indexes, ``seq`` bounds, counts, and slot bounds) but with a
        single C-side scan instead of one round-trip per chunk — the
        keyset walk re-executes its query (and re-plans its variable
        SQL) once per ``chunk_size`` rows, which showed up as a
        measurable share of short analysis runs. The SQL text here is
        constant, so SQLite's per-connection statement cache serves
        every call after the first.
        """
        if chunk_size < 1:
            raise ConfigError("chunk_size must be >= 1")
        where = where or BundleFilter()
        clause, params = where.compile()
        cursor = seq_min if seq_min is not None else 0
        rows = self._timed(
            "chunk_bounds",
            "SELECT grp, COUNT(*) AS n, MIN(seq) AS seq_lo, "
            "MAX(seq) AS seq_hi, MIN(slot) AS slot_lo, MAX(slot) AS slot_hi "
            "FROM (SELECT seq, slot, "
            "(ROW_NUMBER() OVER (ORDER BY seq) - 1) / ? AS grp "
            f"FROM bundles WHERE seq > ? AND {clause}) "
            "GROUP BY grp ORDER BY grp",
            [chunk_size, cursor] + params,
        )
        return [
            ArchiveChunk(
                index=index,
                seq_lo=row["seq_lo"],
                seq_hi=row["seq_hi"],
                count=row["n"],
                slot_lo=row["slot_lo"],
                slot_hi=row["slot_hi"],
            )
            for index, row in enumerate(rows)
        ]

    def count_bundles(self, where: BundleFilter | None = None) -> int:
        """Number of bundles matching the filter."""
        where = where or BundleFilter()
        clause, params = where.compile()
        rows = self._timed(
            "count_bundles",
            f"SELECT COUNT(*) AS n FROM bundles WHERE {clause}",
            params,
        )
        return rows[0]["n"]

    def bundle(self, bundle_id: str) -> BundleRecord | None:
        """One bundle by id."""
        rows = self._timed(
            "bundle",
            f"SELECT {_BUNDLES} FROM bundles WHERE bundle_id = ?",
            [bundle_id],
            tuples=True,
        )
        return bundle_from_columns(*rows[0]) if rows else None

    def bundle_of_transaction(self, tx_id: str) -> BundleRecord | None:
        """The bundle containing a member transaction id, if archived."""
        rows = self._timed(
            "bundle_of_transaction",
            f"SELECT {_B_BUNDLES} FROM bundles b "
            "JOIN bundle_transactions m ON m.bundle_id = b.bundle_id "
            "WHERE m.transaction_id = ?",
            [tx_id],
            tuples=True,
        )
        return bundle_from_columns(*rows[0]) if rows else None

    # --- transaction details ----------------------------------------------

    def details(
        self,
        signer: str | None = None,
        limit: int | None = None,
        offset: int = 0,
    ) -> list[TransactionRecord]:
        """Transaction details, optionally restricted to one signer."""
        clause = "signer = ?" if signer is not None else "1=1"
        params: list = [signer] if signer is not None else []
        page, page_params = _page_clause(limit, offset)
        sql = (
            f"SELECT {_DETAILS} FROM transactions WHERE {clause} ORDER BY seq"
            + page
        )
        rows = self._timed("details", sql, params + page_params, tuples=True)
        return list(starmap(detail_from_columns, rows))

    def count_transactions(self) -> int:
        """Number of archived transaction details."""
        rows = self._timed(
            "count_transactions",
            "SELECT COUNT(*) AS n FROM transactions",
            [],
        )
        return rows[0]["n"]

    def details_for_bundle(self, bundle: BundleRecord) -> list[TransactionRecord]:
        """Details of a bundle's member transactions, in bundle order."""
        found = {
            record.transaction_id: record
            for record in starmap(
                detail_from_columns,
                self._timed(
                    "details_for_bundle",
                    f"SELECT {_DETAILS} FROM transactions "
                    "WHERE transaction_id IN "
                    f"({','.join('?' * len(bundle.transaction_ids))})",
                    list(bundle.transaction_ids),
                    tuples=True,
                ),
            )
        }
        return [
            found[tx_id] for tx_id in bundle.transaction_ids if tx_id in found
        ]

    def details_for_range(
        self, seq_lo: int, seq_hi: int, length: int
    ) -> list[TransactionRecord]:
        """Member details of every ``length`` bundle in a ``seq`` range.

        One join in bundle order, then member order — the concatenation
        of :meth:`details_for_bundle` over the range's ``length`` bundles,
        for members recorded in ``bundle_transactions``.
        """
        rows = self._timed(
            "details_for_range",
            f"SELECT {_T_DETAILS} FROM bundles b "
            "JOIN bundle_transactions m ON m.bundle_id = b.bundle_id "
            "JOIN transactions t ON t.transaction_id = m.transaction_id "
            "WHERE b.seq >= ? AND b.seq <= ? AND b.num_transactions = ? "
            "ORDER BY b.seq, m.position",
            [seq_lo, seq_hi, length],
            tuples=True,
        )
        return list(starmap(detail_from_columns, rows))

    # --- columnar projections ----------------------------------------------
    #
    # The columnar engine (:mod:`repro.columnar`) loads whole chunks through
    # these projections instead of per-bundle object queries: scalar bundle
    # columns by ``seq`` range or id worklist, and each candidate member's
    # raw ``events`` / ``token_deltas`` text, which
    # :mod:`repro.columnar.blocks` parses with Python's exact ``json``. All
    # of them return raw row tuples in a documented column order, so the
    # block builders transpose them without intermediate objects.

    def bundle_columns(self, seq_lo: int, seq_hi: int) -> list:
        """Scalar bundle columns for one contiguous ``seq`` range.

        Row shape: ``(seq, bundle_id, slot, landed_at, tip_lamports,
        num_transactions, transaction_ids_json)`` in ``seq`` order — the
        same working set :func:`repro.parallel.worker.load_task` loads
        for an object-engine chunk task, minus the per-row JSON parse.
        """
        return self._timed(
            "bundle_columns",
            "SELECT seq, bundle_id, slot, landed_at, tip_lamports, "
            "num_transactions, transaction_ids FROM bundles "
            "WHERE seq >= ? AND seq <= ? ORDER BY seq",
            [seq_lo, seq_hi],
            tuples=True,
        )

    def bundle_columns_for_ids(self, bundle_ids: Sequence[str]) -> list:
        """Scalar bundle columns for an explicit id worklist.

        Same row shape as :meth:`bundle_columns`. Rows come back in
        arbitrary order and missing ids produce no row — callers reorder
        against the worklist (the incremental analyzer's stored pending
        order) themselves.
        """
        rows: list = []
        for batch in _in_batches(bundle_ids):
            rows.extend(
                self._timed(
                    "bundle_columns_for_ids",
                    "SELECT seq, bundle_id, slot, landed_at, tip_lamports, "
                    "num_transactions, transaction_ids FROM bundles "
                    f"WHERE bundle_id IN ({','.join('?' * len(batch))})",
                    list(batch),
                    tuples=True,
                )
            )
        return rows

    def detail_payloads(self, tx_ids: Sequence[str]) -> list:
        """``(transaction_id, signer, events, token_deltas)`` raw text.

        Ids with no detail row produce no output row, which is how the
        columnar loader discovers incomplete (pending) candidates without
        materializing any :class:`TransactionRecord`.
        """
        rows: list = []
        for batch in _in_batches(tx_ids):
            rows.extend(
                self._timed(
                    "detail_payloads",
                    "SELECT transaction_id, signer, events, token_deltas "
                    "FROM transactions "
                    f"WHERE transaction_id IN ({','.join('?' * len(batch))})",
                    list(batch),
                    tuples=True,
                )
            )
        return rows

    def candidate_payloads(
        self, seq_lo: int, seq_hi: int, length: int = 3
    ) -> list:
        """Detail payloads of every candidate member in a ``seq`` range.

        Row shape: ``(transaction_id, signer, events, token_deltas)`` as
        in :meth:`detail_payloads`, with ``token_deltas`` NULL except at
        the edge positions 0 and 2 (the attacker-side front and back
        transactions, the only ones quantification reads). One join
        replaces parsing every bundle's ``transaction_ids`` in Python and
        shipping the ids back through ``IN`` batches; its SQL text is
        constant, so the connection's statement cache compiles it once
        per worker. ``bundle_transactions`` is keyed by transaction id,
        so every member yields at most one row; members whose detail was
        never fetched yield none. Rows are unordered.
        """
        return self._timed(
            "candidate_payloads",
            "SELECT t.transaction_id, t.signer, t.events, "
            "CASE WHEN m.position IN (0, 2) THEN t.token_deltas END "
            "FROM bundles b "
            "JOIN bundle_transactions m ON m.bundle_id = b.bundle_id "
            "JOIN transactions t ON t.transaction_id = m.transaction_id "
            "WHERE b.seq >= ? AND b.seq <= ? AND b.num_transactions = ?",
            [seq_lo, seq_hi, length],
            tuples=True,
        )

    # --- sandwiches --------------------------------------------------------

    def sandwiches(
        self,
        where: SandwichFilter | None = None,
        order_by: str = "seq",
        descending: bool = False,
        limit: int | None = None,
        offset: int = 0,
    ) -> list[QuantifiedSandwich]:
        """Filtered, ordered, paginated detection rows (id-only bundles)."""
        where = where or SandwichFilter()
        clause, params = where.compile()
        page, page_params = _page_clause(limit, offset)
        sql = (
            f"SELECT {_SANDWICHES} FROM sandwiches WHERE {clause}"
            + _order_clause(order_by, descending, SANDWICH_ORDER_COLUMNS)
            + page
        )
        rows = self._timed(
            "sandwiches", sql, params + page_params, tuples=True
        )
        return list(starmap(sandwich_from_columns, rows))

    def sandwich_for_bundle(self, bundle_id: str) -> QuantifiedSandwich | None:
        """The detection recorded for one attacked bundle, if any.

        Bundle ids are unique in the archive, so at most one row matches.
        """
        rows = self._timed(
            "sandwich_for_bundle",
            f"SELECT {_SANDWICHES} FROM sandwiches WHERE bundle_id = ?",
            [bundle_id],
            tuples=True,
        )
        return sandwich_from_columns(*rows[0]) if rows else None

    def count_sandwiches(self, where: SandwichFilter | None = None) -> int:
        """Number of detections matching the filter."""
        where = where or SandwichFilter()
        clause, params = where.compile()
        rows = self._timed(
            "count_sandwiches",
            f"SELECT COUNT(*) AS n FROM sandwiches WHERE {clause}",
            params,
        )
        return rows[0]["n"]

    # --- aggregations ------------------------------------------------------

    def bundle_counts_by_day(self) -> dict[str, dict[int, int]]:
        """Per-UTC-date bundle counts by length (the Figure 1 series)."""
        rows = self._timed(
            "bundle_counts_by_day",
            "SELECT landed_date, num_transactions, COUNT(*) AS n "
            "FROM bundles GROUP BY landed_date, num_transactions "
            "ORDER BY landed_date, num_transactions",
            [],
        )
        table: dict[str, dict[int, int]] = {}
        for row in rows:
            table.setdefault(row["landed_date"], {})[
                row["num_transactions"]
            ] = row["n"]
        return table

    def length_histogram(self) -> dict[int, int]:
        """Bundle count by length."""
        rows = self._timed(
            "length_histogram",
            "SELECT num_transactions, COUNT(*) AS n FROM bundles "
            "GROUP BY num_transactions ORDER BY num_transactions",
            [],
        )
        return {row["num_transactions"]: row["n"] for row in rows}

    def sandwiches_per_day(self) -> dict[str, dict[str, float]]:
        """Per-day attack counts and USD loss/gain sums (Figure 2 bottom)."""
        rows = self._timed(
            "sandwiches_per_day",
            "SELECT landed_date, COUNT(*) AS attacks, "
            "COALESCE(SUM(victim_loss_usd), 0) AS victim_loss_usd, "
            "COALESCE(SUM(attacker_gain_usd), 0) AS attacker_gain_usd "
            "FROM sandwiches GROUP BY landed_date ORDER BY landed_date",
            [],
        )
        return {
            row["landed_date"]: {
                "attacks": row["attacks"],
                "victim_loss_usd": row["victim_loss_usd"],
                "attacker_gain_usd": row["attacker_gain_usd"],
            }
            for row in rows
        }

    def tip_histogram(
        self, bucket_lamports: int = 100_000, length: int | None = None
    ) -> dict[int, int]:
        """Bundle counts per tip bucket (bucket floor, in lamports)."""
        if bucket_lamports < 1:
            raise ConfigError("tip bucket width must be >= 1 lamport")
        clause = "1=1" if length is None else "num_transactions = ?"
        params: list = [bucket_lamports, bucket_lamports]
        if length is not None:
            params.append(length)
        rows = self._timed(
            "tip_histogram",
            f"SELECT (tip_lamports / ?) * ? AS bucket, COUNT(*) AS n "
            f"FROM bundles WHERE {clause} GROUP BY bucket ORDER BY bucket",
            params,
        )
        return {row["bucket"]: row["n"] for row in rows}

    def top_attackers(self, limit: int = 10) -> list[dict]:
        """Attackers ranked by total USD extracted (priced events only)."""
        rows = self._timed(
            "top_attackers",
            "SELECT attacker, COUNT(*) AS attacks, "
            "COALESCE(SUM(attacker_gain_usd), 0) AS gain_usd "
            "FROM sandwiches GROUP BY attacker "
            "ORDER BY gain_usd DESC, attacks DESC, attacker LIMIT ?",
            [limit],
        )
        return [
            {
                "attacker": row["attacker"],
                "attacks": row["attacks"],
                "gain_usd": row["gain_usd"],
            }
            for row in rows
        ]

    def defensive_records(self) -> list[tuple[str, BundleRecord]]:
        """Every classified bundle with its label, in collection order.

        The join restores the full bundle record, so rebuilding a
        :class:`~repro.core.defensive.DefensiveReport` from archive rows
        (incremental analysis, the serving tier's financial aggregates)
        sees exactly what the in-memory classifier appended.
        """
        rows = self._timed(
            "defensive_records",
            f"SELECT d.classification, {_B_BUNDLES} FROM defensive d "
            "JOIN bundles b ON b.bundle_id = d.bundle_id ORDER BY b.seq",
            [],
            tuples=True,
        )
        return [(row[0], bundle_from_columns(*row[1:])) for row in rows]

    def defensive_report(self, threshold_lamports: int) -> DefensiveReport:
        """The campaign-wide defensive report, rebuilt from archive rows.

        Bundles land in each bucket in ``seq`` (collection) order, the
        order the in-memory classifier appended them in.
        """
        report = DefensiveReport(threshold_lamports=threshold_lamports)
        defensive, priority = report.defensive, report.priority
        for classification, bundle in self.defensive_records():
            if classification == "defensive":
                defensive.append(bundle)
            else:
                priority.append(bundle)
        return report

    def pending_detail_count(self, min_length: int = 3) -> int:
        """Bundles of ``min_length``+ still missing member details.

        The archive-level analogue of the report's "details missing"
        integrity line: detection candidates the fetcher never completed,
        exposed by the serving tier's status endpoint.
        """
        rows = self._timed(
            "pending_detail_count",
            "SELECT COUNT(*) AS n FROM bundles b "
            "WHERE b.num_transactions >= ? AND "
            "(SELECT COUNT(*) FROM bundle_transactions m "
            " JOIN transactions t ON t.transaction_id = m.transaction_id "
            " WHERE m.bundle_id = b.bundle_id) < b.num_transactions",
            [min_length],
        )
        return rows[0]["n"]

    def watermark(self) -> ArchiveWatermark:
        """The archive's current read-side version (three MAX, one COUNT,
        one single-row read)."""
        rows = self._timed(
            "watermark",
            "SELECT "
            "(SELECT COALESCE(MAX(seq), 0) FROM bundles) AS bundle_seq, "
            "(SELECT COALESCE(MAX(seq), 0) FROM transactions) "
            "  AS transaction_seq, "
            "(SELECT COALESCE(MAX(seq), 0) FROM sandwiches) AS sandwich_seq, "
            "(SELECT COUNT(*) FROM defensive) AS defensive_rows, "
            "(SELECT generation FROM analysis_generation) "
            "  AS analysis_generation",
            [],
        )
        row = rows[0]
        return ArchiveWatermark(
            bundle_seq=row["bundle_seq"],
            transaction_seq=row["transaction_seq"],
            sandwich_seq=row["sandwich_seq"],
            defensive_rows=row["defensive_rows"],
            analysis_generation=row["analysis_generation"],
        )

    def defensive_summary(self) -> dict[str, dict[str, float]]:
        """Counts and tip totals by defensive/priority classification."""
        rows = self._timed(
            "defensive_summary",
            "SELECT classification, COUNT(*) AS n, "
            "COALESCE(SUM(tip_lamports), 0) AS tips "
            "FROM defensive GROUP BY classification ORDER BY classification",
            [],
        )
        return {
            row["classification"]: {
                "bundles": row["n"],
                "tip_lamports": row["tips"],
            }
            for row in rows
        }
