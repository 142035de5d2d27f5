"""The report's "Collection integrity" section.

The paper's measurement ran for four months against a rate-limited,
occasionally unstable endpoint; any honest report of such a campaign must
quantify what the collector *failed* to see. This section does exactly
that: coverage gaps (maximal runs of failed polls), retry pressure, the
landed-but-never-collected shortfall, details still missing at close, and
— when a chaos campaign ran with fault injection — the injected-fault
tally by kind, so injected damage is distinguishable from organic damage.

Every number derives from sim-time state, so the section is byte-identical
across replays of the same seed and plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collector.campaign import CampaignResult
from repro.collector.coverage import CollectionGap
from repro.constants import POLL_INTERVAL_SECONDS
from repro.obs.export import _sum_counter


@dataclass(frozen=True)
class CollectionIntegrity:
    """Quantified damage report for one campaign's collection."""

    polls_ok: int
    polls_failed: int
    poll_retries: int
    detail_retries: int
    batches_ok: int
    batches_failed: int
    gaps: tuple[CollectionGap, ...]
    bundles_landed: int
    bundles_collected: int
    details_missing: int
    faults_enabled: bool
    requests_intercepted: int
    faults_injected: dict[str, int]

    @property
    def bundles_dropped(self) -> int:
        """Bundles the simulation landed but the collector never saw."""
        return max(0, self.bundles_landed - self.bundles_collected)

    @property
    def gap_seconds(self) -> float:
        """Total sim seconds covered by collection gaps."""
        return sum(gap.duration for gap in self.gaps)

    def render(self) -> str:
        """Render the report section (deterministic for a given seed+plan)."""
        lines = [
            "Collection integrity",
            f"  polls               ok={self.polls_ok} "
            f"failed={self.polls_failed} retries={self.poll_retries}",
            f"  detail batches      ok={self.batches_ok} "
            f"failed={self.batches_failed} retries={self.detail_retries}",
            f"  coverage gaps       count={len(self.gaps)} "
            f"total_seconds={self.gap_seconds:.0f}",
        ]
        for gap in self.gaps:
            lines.append(
                f"    gap                 start={gap.start:.0f} "
                f"end={gap.end:.0f} failed_polls={gap.failed_polls}"
            )
        lines.append(
            f"  bundles             landed={self.bundles_landed} "
            f"collected={self.bundles_collected} "
            f"dropped={self.bundles_dropped}"
        )
        lines.append(f"  details missing     {self.details_missing}")
        if not self.faults_enabled:
            lines.append("  fault injection     disabled")
        else:
            injected = sum(self.faults_injected.values())
            lines.append(
                f"  fault injection     "
                f"requests={self.requests_intercepted} injected={injected}"
            )
            for kind, count in sorted(self.faults_injected.items()):
                lines.append(f"    injected            {kind}={count}")
        return "\n".join(lines)


def build_collection_integrity(result: CampaignResult) -> CollectionIntegrity:
    """Compute the integrity accounting from a finished campaign."""
    snapshot = result.metrics.snapshot()
    fetcher = result.fetcher
    store = result.store
    # Failures in adjacent poll slots are one hole in the record; allow
    # half a slot of slack for churn around each failure. Polls are also
    # gated by block cadence, so when blocks arrive slower than the
    # poll interval the effective slot is the observed mean spacing.
    elapsed = result.world.clock.elapsed()
    polls = max(1, result.poller.polls_attempted)
    gap_threshold = 1.5 * max(POLL_INTERVAL_SECONDS, elapsed / polls)
    target_length = fetcher.config.target_length
    details_missing = sum(
        1
        for bundle in store.bundles_of_length_since(target_length, 0)
        if store.missing_details(bundle)
    )
    faults = result.faults
    return CollectionIntegrity(
        polls_ok=result.coverage.successful_polls,
        polls_failed=result.coverage.failed_polls,
        poll_retries=int(
            _sum_counter(snapshot, "collector_poll_retries_total")
        ),
        detail_retries=int(
            _sum_counter(snapshot, "collector_detail_retries_total")
        ),
        batches_ok=fetcher.batches_fetched,
        batches_failed=fetcher.batches_failed,
        gaps=tuple(result.coverage.collection_gaps(gap_threshold)),
        bundles_landed=result.world.bundles_landed,
        bundles_collected=len(store),
        details_missing=details_missing,
        faults_enabled=faults is not None,
        requests_intercepted=faults.requests_seen if faults else 0,
        faults_injected=faults.counts_by_kind() if faults else {},
    )
