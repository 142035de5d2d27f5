"""Explorer service logic: the two endpoints the paper reverse engineered.

The recent-bundles endpoint returns the most recent ``limit`` landed bundles
(website default 200; the paper widened the call to 50,000). The transaction
endpoint returns execution details for explicit transaction ids, capped at
10,000 per request. Both enforce a per-client token-bucket rate limit, and
both go dark (503) inside injected instability windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.constants import (
    DETAIL_BATCH_LIMIT,
    EXPLORER_DEFAULT_RECENT_LIMIT,
    EXPLORER_MAX_RECENT_LIMIT,
)
from repro.errors import (
    BadRequestError,
    RateLimitedError,
    ServiceUnavailableError,
)
from repro.explorer.models import BundleRecord, TransactionRecord
from repro.jito.block_engine import BlockEngine
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.simulation.downtime import DowntimeSchedule
from repro.solana.ledger import Ledger
from repro.utils.ratelimit import ClientRateLimiter
from repro.utils.simtime import SECONDS_PER_DAY, SimClock


def record_from_receipt(receipt, block_time: float) -> TransactionRecord:
    """Convert a bank receipt into the wire-level transaction record."""
    return TransactionRecord(
        transaction_id=receipt.transaction_id,
        slot=receipt.slot,
        block_time=block_time,
        signer=receipt.fee_payer,
        signers=tuple(receipt.signers),
        fee_lamports=receipt.fee.total,
        token_deltas=receipt.token_deltas,
        lamport_deltas=receipt.lamport_deltas,
        events=tuple(receipt.events),
    )


@dataclass(frozen=True)
class ExplorerConfig:
    """Endpoint limits and rate-limit policy."""

    default_recent_limit: int = EXPLORER_DEFAULT_RECENT_LIMIT
    max_recent_limit: int = EXPLORER_MAX_RECENT_LIMIT
    # Token bucket per client: sustained rate and burst capacity. The
    # defaults allow roughly one request per 10 seconds with short bursts,
    # comfortably above the paper's deliberately polite 2-minute cadence.
    requests_per_second: float = 0.1
    burst_capacity: float = 6.0


class ExplorerService:
    """Serves bundle listings and transaction details from the engine/ledger."""

    def __init__(
        self,
        block_engine: BlockEngine,
        ledger: Ledger,
        clock: SimClock,
        config: ExplorerConfig | None = None,
        downtime: DowntimeSchedule | None = None,
        metrics: MetricsRegistry | None = None,
        feed_filter: Callable[[str], bool] | None = None,
    ) -> None:
        self._engine = block_engine
        self._ledger = ledger
        self._clock = clock
        self._config = config or ExplorerConfig()
        self._downtime = downtime or DowntimeSchedule([])
        # Visibility predicate over bundle ids: bundles it rejects landed
        # on chain but never surface on the public endpoints — the
        # private-submission-channel seam scenario packs exercise. None
        # means the historical fully-public feed.
        self._feed_filter = feed_filter
        self._limiter = ClientRateLimiter(
            rate=self._config.requests_per_second,
            burst=self._config.burst_capacity,
            time_fn=clock.now,
        )
        self.requests_served = 0
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._requests_metric = self.metrics.counter(
            "explorer_requests_total",
            "Requests served successfully, by endpoint.",
        )
        self._rejected_metric = self.metrics.counter(
            "explorer_requests_rejected_total",
            "Requests rejected, by endpoint and reason (429/503).",
        )
        self._tokens_rejected_metric = self.metrics.counter(
            "ratelimit_tokens_rejected_total",
            "Token-bucket admission rejections at the explorer.",
        )

    @property
    def config(self) -> ExplorerConfig:
        """The service's endpoint limits."""
        return self._config

    # --- guards ----------------------------------------------------------------

    def _check_available(self, endpoint: str) -> None:
        day_fraction = self._clock.elapsed() / SECONDS_PER_DAY
        if self._downtime.is_down(day_fraction):
            self._rejected_metric.inc(
                endpoint=endpoint, reason="unavailable"
            )
            raise ServiceUnavailableError(
                "explorer unavailable (instability window)"
            )

    def _check_rate(self, client_id: str, endpoint: str) -> None:
        admission = self._limiter.admit(client_id)
        if not admission.allowed:
            self._tokens_rejected_metric.inc()
            self._rejected_metric.inc(
                endpoint=endpoint, reason="rate_limited"
            )
            raise RateLimitedError(
                f"client {client_id!r} exceeded rate limit",
                retry_after=admission.retry_after,
            )

    # --- endpoints ---------------------------------------------------------------

    def recent_bundles(
        self, limit: int | None = None, client_id: str = "anon"
    ) -> list[BundleRecord]:
        """The most recent ``limit`` landed bundles, newest last.

        Raises:
            BadRequestError: for non-positive limits or limits beyond the
                widened 50,000 maximum.
            RateLimitedError / ServiceUnavailableError: per policy.
        """
        self._check_available("recent_bundles")
        self._check_rate(client_id, "recent_bundles")
        if limit is None:
            limit = self._config.default_recent_limit
        if limit <= 0:
            raise BadRequestError(f"limit must be positive, got {limit}")
        if limit > self._config.max_recent_limit:
            raise BadRequestError(
                f"limit {limit} exceeds maximum {self._config.max_recent_limit}"
            )
        log = self._engine.bundle_log
        if self._feed_filter is not None:
            # Filter before windowing: the feed serves ``limit`` *visible*
            # bundles, exactly as a real endpoint unaware of the hidden
            # flow would paginate.
            log = [
                outcome
                for outcome in log
                if self._feed_filter(outcome.bundle_id)
            ]
        window = log[-limit:]
        self.requests_served += 1
        self._requests_metric.inc(endpoint="recent_bundles")
        return [
            BundleRecord(
                bundle_id=outcome.bundle_id,
                slot=outcome.slot,
                landed_at=outcome.landed_at,
                tip_lamports=outcome.tip_lamports,
                transaction_ids=tuple(outcome.transaction_ids),
            )
            for outcome in window
        ]

    def bundle(
        self, bundle_id: str, client_id: str = "anon"
    ) -> BundleRecord | None:
        """Look up one landed bundle by its id (the explorer's detail page).

        Returns None for ids the engine never landed.
        """
        self._check_available("bundle")
        self._check_rate(client_id, "bundle")
        if not bundle_id:
            raise BadRequestError("bundle id is empty")
        if self._feed_filter is not None and not self._feed_filter(bundle_id):
            # A privately-submitted bundle is indistinguishable from one
            # that never landed, from the public explorer's vantage point.
            self.requests_served += 1
            self._requests_metric.inc(endpoint="bundle")
            return None
        outcome = self._engine.get_landed_bundle(bundle_id)
        self.requests_served += 1
        self._requests_metric.inc(endpoint="bundle")
        if outcome is None:
            return None
        return BundleRecord(
            bundle_id=outcome.bundle_id,
            slot=outcome.slot,
            landed_at=outcome.landed_at,
            tip_lamports=outcome.tip_lamports,
            transaction_ids=tuple(outcome.transaction_ids),
        )

    def transactions(
        self, transaction_ids: list[str], client_id: str = "anon"
    ) -> list[TransactionRecord]:
        """Execution details for explicit transaction ids (max 10,000).

        Unknown ids are silently omitted, as a best-effort web endpoint would.
        """
        self._check_available("transactions")
        self._check_rate(client_id, "transactions")
        if not transaction_ids:
            raise BadRequestError("transaction id list is empty")
        if len(transaction_ids) > DETAIL_BATCH_LIMIT:
            raise BadRequestError(
                f"requested {len(transaction_ids)} transactions, "
                f"maximum is {DETAIL_BATCH_LIMIT}"
            )
        records: list[TransactionRecord] = []
        for tx_id in transaction_ids:
            receipt = self._ledger.get_transaction(tx_id)
            if receipt is None:
                continue
            block = self._ledger.block_at_slot(receipt.slot)
            block_time = block.unix_timestamp if block else 0.0
            records.append(record_from_receipt(receipt, block_time))
        self.requests_served += 1
        self._requests_metric.inc(endpoint="transactions")
        return records
