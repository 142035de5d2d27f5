"""Transaction-detail fetching for length-three bundles.

The paper limits detail pulls to bundles of length three (2.77% of bundles,
the canonical sandwich shape), requesting at most 10,000 transactions at a
time, spaced at least two minutes apart (Section 3.1). This fetcher applies
the same policy against the simulated endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import DETAIL_BATCH_LIMIT, DETAIL_BATCH_SPACING_SECONDS
from repro.collector.client import ExplorerClient
from repro.collector.store import BundleStore
from repro.errors import (
    ConfigError,
    RateLimitedError,
    ServiceUnavailableError,
    TransportError,
)
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.utils.backoff import ExponentialBackoff
from repro.utils.rng import DeterministicRNG
from repro.utils.simtime import SimClock


@dataclass(frozen=True)
class DetailFetcherConfig:
    """Which bundles to detail, and how politely.

    ``max_retries`` defaults to zero — a failed batch is simply retried at
    the next two-minute slot, which is the paper's polite behavior. Chaos
    campaigns raise it so a batch survives transient 429/503 storms, with
    ``retry_budget_seconds`` capping the cumulative backoff per cycle.
    """

    target_length: int = 3
    batch_limit: int = DETAIL_BATCH_LIMIT
    spacing_seconds: float = DETAIL_BATCH_SPACING_SECONDS
    max_retries: int = 0
    retry_budget_seconds: float | None = None

    def validate(self) -> None:
        """Raise :class:`ConfigError` on nonsensical settings."""
        if self.target_length < 1 or self.target_length > 5:
            raise ConfigError("target_length must be a valid bundle length")
        if self.batch_limit < 1:
            raise ConfigError("batch_limit must be positive")
        if self.spacing_seconds < 0:
            raise ConfigError("spacing_seconds must be >= 0")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if (
            self.retry_budget_seconds is not None
            and self.retry_budget_seconds <= 0
        ):
            raise ConfigError("retry_budget_seconds must be positive")


@dataclass
class FetchResult:
    """Outcome of one fetch cycle."""

    requested: int = 0
    stored: int = 0
    failed: bool = False
    error: str | None = None


class TxDetailFetcher:
    """Fetches contents for not-yet-detailed bundles of the target length."""

    def __init__(
        self,
        client: ExplorerClient,
        store: BundleStore,
        clock: SimClock,
        config: DetailFetcherConfig | None = None,
        metrics: MetricsRegistry | None = None,
        rng: DeterministicRNG | None = None,
    ) -> None:
        self.config = config or DetailFetcherConfig()
        self.config.validate()
        self._client = client
        self._store = store
        self._clock = clock
        self._rng = rng or DeterministicRNG(0).child("fetcher")
        self._next_due = clock.now()
        self.batches_fetched = 0
        self.batches_failed = 0
        self.fetch_cycles = 0
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._batches_metric = self.metrics.counter(
            "collector_detail_batches_total",
            "Detail-fetch batches, by outcome.",
        )
        self._retries_metric = self.metrics.counter(
            "collector_detail_retries_total",
            "Request attempts beyond the first within a detail-fetch cycle.",
        )
        self._batch_size_metric = self.metrics.histogram(
            "collector_detail_batch_size",
            "Transaction ids requested per detail batch.",
            buckets=(1, 10, 100, 1_000, 10_000),
        )
        self._stored_metric = self.metrics.counter(
            "collector_details_stored_total",
            "Transaction details newly stored by fetches.",
        )
        # Incremental scan state: bundles already seen but not yet fully
        # detailed, plus the offset into the store's per-length index.
        self._scan_offset = 0
        self._incomplete: list = []

    def due(self) -> bool:
        """Whether the two-minute spacing allows another batch now."""
        return self._clock.now() >= self._next_due

    def state(self) -> dict:
        """JSON-safe snapshot of the fetch cursor (for checkpoints)."""
        return {
            "next_due": self._next_due,
            "batches_fetched": self.batches_fetched,
            "batches_failed": self.batches_failed,
            "fetch_cycles": self.fetch_cycles,
            "scan_offset": self._scan_offset,
            "incomplete_ids": [
                bundle.bundle_id for bundle in self._incomplete
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state`.

        The incomplete-bundle worklist is rebuilt from ids against the
        (already restored) store, preserving its order — batch composition
        after a resume must match the uninterrupted run's.
        """
        self._next_due = float(state["next_due"])
        self.batches_fetched = int(state["batches_fetched"])
        self.batches_failed = int(state["batches_failed"])
        self.fetch_cycles = int(state.get("fetch_cycles", 0))
        self._scan_offset = int(state["scan_offset"])
        self._incomplete = [
            bundle
            for bundle in (
                self._store.get_bundle(bundle_id)
                for bundle_id in state["incomplete_ids"]
            )
            if bundle is not None
        ]

    def _refresh_incomplete(self) -> None:
        new_records = self._store.bundles_of_length_since(
            self.config.target_length, self._scan_offset
        )
        self._scan_offset += len(new_records)
        self._incomplete.extend(new_records)
        self._incomplete = [
            bundle
            for bundle in self._incomplete
            if self._store.missing_details(bundle)
        ]

    def pending_transaction_ids(self) -> list[str]:
        """Transaction ids of target-length bundles still lacking details.

        Scans incrementally: only bundles collected since the last call,
        plus any that previously failed to detail, are re-examined.
        """
        self._refresh_incomplete()
        pending: list[str] = []
        for bundle in self._incomplete:
            pending.extend(self._store.missing_details(bundle))
        return pending

    def fetch_once(self) -> FetchResult:
        """Fetch one batch (up to the 10,000-transaction cap).

        Transient errors are retried up to ``max_retries`` times within the
        cycle, honoring any Retry-After hint and the cycle's time budget.
        Jitter is drawn from a per-cycle substream named after the cycle
        number, so checkpointed runs replay the same randomness.
        """
        self.fetch_cycles += 1
        pending = self.pending_transaction_ids()
        if not pending:
            # No request went out, so the polite inter-batch spacing does
            # not apply: stay due now instead of sleeping a full interval
            # while freshly collected bundles queue up.
            self._next_due = self._clock.now()
            self._batches_metric.inc(outcome="empty")
            return FetchResult()
        self._next_due = self._clock.now() + self.config.spacing_seconds
        batch = pending[: self.config.batch_limit]
        self._batch_size_metric.observe(len(batch))
        backoff = ExponentialBackoff(
            base=2.0,
            max_delay=60.0,
            max_attempts=self.config.max_retries + 1,
            rng=self._rng.child(f"retry:{self.fetch_cycles}"),
        )
        last_error: str | None = None
        retry_after_hint: float | None = None
        delay_spent = 0.0
        while not backoff.exhausted():
            retrying = backoff.attempts_made > 0
            delay = backoff.next_delay()  # budget; sim time doesn't sleep
            if retrying:
                if retry_after_hint is not None:
                    delay = max(delay, retry_after_hint)
                budget = self.config.retry_budget_seconds
                if budget is not None and delay_spent + delay > budget:
                    last_error = (
                        f"retry budget of {budget}s exhausted: "
                        f"{last_error}"
                    )
                    break
                delay_spent += delay
                self._retries_metric.inc()
            try:
                records = self._client.transactions(batch)
            except (
                RateLimitedError,
                ServiceUnavailableError,
                TransportError,
            ) as exc:
                last_error = str(exc)
                retry_after_hint = getattr(exc, "retry_after", None)
                continue
            stored = self._store.add_details(records)
            self.batches_fetched += 1
            self._batches_metric.inc(outcome="ok")
            self._stored_metric.inc(stored)
            return FetchResult(requested=len(batch), stored=stored)
        self.batches_failed += 1
        self._batches_metric.inc(outcome="failed")
        return FetchResult(requested=len(batch), failed=True, error=last_error)

    def maybe_fetch(self) -> FetchResult | None:
        """Fetch one batch if spacing allows and work is pending."""
        if not self.due():
            return None
        if not self.pending_transaction_ids():
            return None
        return self.fetch_once()

    def drain(self, max_batches: int = 1_000) -> int:
        """Fetch batches back-to-back until nothing is pending.

        Each batch advances the simulated clock by the configured spacing,
        honoring the paper's pacing. Returns the number of details stored.
        """
        stored = 0
        for _ in range(max_batches):
            if not self.pending_transaction_ids():
                break
            result = self.fetch_once()
            stored += result.stored
            if result.failed:
                break
            if self.config.spacing_seconds:
                self._clock.advance(self.config.spacing_seconds)
        return stored
