"""A fault-injecting wrapper around any :class:`ExplorerClient` transport.

Sits exactly where the network sat in the paper's campaign: between the
collection pipeline and the explorer. Error-kind faults raise the same
typed errors the real transports raise, so the poller and detail fetcher
cannot tell an injected 429 from an organic one; mutation-kind faults
tamper with the response the way a drifting interface would (short pages,
reordered listings, skewed server timestamps).
"""

from __future__ import annotations

import dataclasses

from repro.explorer.models import BundleRecord, TransactionRecord
from repro.faults.injector import FaultDecision, FaultInjector
from repro.faults.model import FaultKind


class FaultInjectingClient:
    """Wraps an inner client; consults the injector on every request."""

    def __init__(self, inner, injector: FaultInjector) -> None:
        self._inner = inner
        self.injector = injector

    # --- mutations --------------------------------------------------------------

    @staticmethod
    def _mutate(records: list, decision: FaultDecision, time_field: str) -> list:
        """Apply a mutation-kind fault to one response's records.

        ``time_field`` names the server timestamp a clock skew shifts:
        ``landed_at`` on bundles, ``block_time`` on transactions.
        """
        kind = decision.kind
        if kind is FaultKind.TRUNCATE and decision.spec is not None:
            keep = len(records) - int(
                len(records) * decision.spec.drop_fraction
            )
            return records[:keep]
        if kind is FaultKind.REORDER:
            shuffled = list(records)
            decision.rng.shuffle(shuffled)
            return shuffled
        if kind is FaultKind.CLOCK_SKEW and decision.spec is not None:
            skew = decision.spec.skew_seconds
            return [
                dataclasses.replace(
                    record, **{time_field: getattr(record, time_field) + skew}
                )
                for record in records
            ]
        return records

    # --- ExplorerClient interface -----------------------------------------------

    def recent_bundles(self, limit: int | None = None) -> list[BundleRecord]:
        """Fetch recent bundles, subject to the fault schedule."""
        decision = self.injector.intercept("recent_bundles")
        if decision is not None and decision.raises:
            raise decision.to_error()
        records = self._inner.recent_bundles(limit)
        if decision is not None:
            records = self._mutate(records, decision, "landed_at")
        return records

    def transactions(
        self, transaction_ids: list[str]
    ) -> list[TransactionRecord]:
        """Fetch transaction details, subject to the fault schedule."""
        decision = self.injector.intercept("transactions")
        if decision is not None and decision.raises:
            raise decision.to_error()
        records = self._inner.transactions(transaction_ids)
        if decision is not None:
            records = self._mutate(records, decision, "block_time")
        return records

    def bundle(self, bundle_id: str) -> BundleRecord | None:
        """Fetch one bundle detail page, subject to the fault schedule."""
        decision = self.injector.intercept("bundle")
        if decision is not None and decision.raises:
            raise decision.to_error()
        record = self._inner.bundle(bundle_id)
        if record is not None and decision is not None:
            mutated = self._mutate([record], decision, "landed_at")
            record = mutated[0] if mutated else None
        return record

    def health(self) -> bool:
        """Probe the inner transport's health, subject to the schedule."""
        decision = self.injector.intercept("health")
        if decision is not None and decision.raises:
            return False
        return self._inner.health() if hasattr(self._inner, "health") else True
