"""The collector's bundle and transaction-detail store.

Deduplicating storage for everything the campaign collects, with JSONL
persistence so a finished collection can be re-analyzed without re-running
the simulation (as the paper re-analyzed its archived pulls).
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Iterator

from repro.explorer.models import BundleRecord, TransactionRecord
from repro.explorer.wire import (
    bundle_record_from_json,
    bundle_record_to_json,
    transaction_record_from_json,
    transaction_record_to_json,
)
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.utils import serialization
from repro.utils.simtime import unix_to_date


class BundleStore:
    """All collected bundles and transaction details, deduplicated.

    When given a :class:`MetricsRegistry`, the store reports insertions and
    dedup hits (``store_bundles_added_total``, ``store_bundle_dedup_hits_
    total``, and the detail equivalents) — the overlap-driven dedup rate is
    a direct pipeline-health signal.
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self._bundles: dict[str, BundleRecord] = {}
        self._details: dict[str, TransactionRecord] = {}
        self._by_length: dict[int, list[BundleRecord]] = {}
        self._taps: list = []
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._bundles_added = self.metrics.counter(
            "store_bundles_added_total", "New bundle records stored."
        )
        self._bundle_dedup = self.metrics.counter(
            "store_bundle_dedup_hits_total",
            "Bundle records skipped as already stored.",
        )
        self._details_added = self.metrics.counter(
            "store_details_added_total", "New transaction details stored."
        )
        self._detail_dedup = self.metrics.counter(
            "store_detail_dedup_hits_total",
            "Transaction details skipped as already stored.",
        )

    # --- publish taps -----------------------------------------------------------

    def attach_tap(self, tap) -> None:
        """Register an observer notified of genuinely-new records.

        A tap is any object with ``bundles_added(records)`` and
        ``details_added(records)`` methods; each is called synchronously
        from :meth:`add_bundles` / :meth:`add_details` with only the
        records that survived deduplication, in insertion order. This is
        the collector's publish hook: the streaming pipeline taps the
        store the poller and detail fetcher already write through, so
        collection code needs no changes to feed an online consumer.
        """
        self._taps.append(tap)

    # --- bundles ----------------------------------------------------------------

    def add_bundles(self, records: list[BundleRecord]) -> int:
        """Insert records, ignoring already-seen bundle ids; returns #new."""
        added = 0
        fresh: list[BundleRecord] = []
        for record in records:
            if record.bundle_id in self._bundles:
                continue
            self._bundles[record.bundle_id] = record
            self._by_length.setdefault(record.num_transactions, []).append(
                record
            )
            fresh.append(record)
            added += 1
        if added:
            self._bundles_added.inc(added)
        duplicates = len(records) - added
        if duplicates:
            self._bundle_dedup.inc(duplicates)
        if fresh:
            for tap in self._taps:
                tap.bundles_added(fresh)
        return added

    def __len__(self) -> int:
        return len(self._bundles)

    def bundles(self) -> Iterator[BundleRecord]:
        """Iterate all collected bundles (landing order not guaranteed)."""
        return iter(self._bundles.values())

    def get_bundle(self, bundle_id: str) -> BundleRecord | None:
        """Look up one bundle by id."""
        return self._bundles.get(bundle_id)

    def bundles_of_length(self, length: int) -> list[BundleRecord]:
        """All collected bundles with exactly ``length`` transactions."""
        return list(self._by_length.get(length, ()))

    def bundles_of_length_since(
        self, length: int, start: int
    ) -> list[BundleRecord]:
        """Records of one length class first seen at or after index ``start``.

        The per-length index is append-only and insertion-ordered, so hot
        callers (the detail fetcher's per-block scan) can consume it
        incrementally instead of rescanning the whole store.
        """
        records = self._by_length.get(length, [])
        return records[start:]

    def length_histogram(self) -> dict[int, int]:
        """Bundle count by length."""
        counts: Counter[int] = Counter(
            record.num_transactions for record in self._bundles.values()
        )
        return dict(sorted(counts.items()))

    def counts_by_day(self) -> dict[str, dict[int, int]]:
        """Per-UTC-date bundle counts, broken down by bundle length.

        This is the raw series behind Figure 1.
        """
        table: dict[str, Counter[int]] = {}
        for record in self._bundles.values():
            date = unix_to_date(record.landed_at)
            table.setdefault(date, Counter())[record.num_transactions] += 1
        return {date: dict(sorted(counts.items())) for date, counts in sorted(table.items())}

    # --- transaction details ------------------------------------------------------

    def add_details(self, records: list[TransactionRecord]) -> int:
        """Insert transaction details; returns the number newly stored."""
        added = 0
        fresh: list[TransactionRecord] = []
        for record in records:
            if record.transaction_id not in self._details:
                self._details[record.transaction_id] = record
                fresh.append(record)
                added += 1
        if added:
            self._details_added.inc(added)
        duplicates = len(records) - added
        if duplicates:
            self._detail_dedup.inc(duplicates)
        if fresh:
            for tap in self._taps:
                tap.details_added(fresh)
        return added

    def detail_count(self) -> int:
        """Number of transaction details stored."""
        return len(self._details)

    def get_detail(self, tx_id: str) -> TransactionRecord | None:
        """Look up the stored detail record for a transaction id."""
        return self._details.get(tx_id)

    def missing_details(self, bundle: BundleRecord) -> list[str]:
        """Member transaction ids of ``bundle`` not yet detailed."""
        return [
            tx_id
            for tx_id in bundle.transaction_ids
            if tx_id not in self._details
        ]

    def fully_detailed_bundles(self, length: int) -> list[BundleRecord]:
        """Bundles of ``length`` whose every member transaction is detailed."""
        return [
            record
            for record in self.bundles_of_length(length)
            if not self.missing_details(record)
        ]

    def details(self) -> Iterator[TransactionRecord]:
        """Iterate all stored transaction details."""
        return iter(self._details.values())

    def copy(self) -> "BundleStore":
        """An independent store with the same bundles and details.

        Records are immutable, so sharing them is safe; the indexes are
        rebuilt. Use this before augmenting a store (e.g. fetching extra
        detail lengths) without disturbing the original.
        """
        duplicate = BundleStore()
        duplicate.add_bundles(list(self._bundles.values()))
        duplicate.add_details(list(self._details.values()))
        return duplicate

    # --- persistence ----------------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Write bundles.jsonl and transactions.jsonl under ``directory``."""
        directory = Path(directory)
        serialization.write_jsonl(
            directory / "bundles.jsonl",
            (bundle_record_to_json(r) for r in self._bundles.values()),
        )
        serialization.write_jsonl(
            directory / "transactions.jsonl",
            (transaction_record_to_json(r) for r in self._details.values()),
        )

    @classmethod
    def load(cls, directory: str | Path) -> "BundleStore":
        """Rebuild a store from :meth:`save` output."""
        directory = Path(directory)
        store = cls()
        store.add_bundles(
            serialization.read_jsonl_as(
                directory / "bundles.jsonl", bundle_record_from_json
            )
        )
        store.add_details(
            serialization.read_jsonl_as(
                directory / "transactions.jsonl", transaction_record_from_json
            )
        )
        return store
