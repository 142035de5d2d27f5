"""The recent-bundles poller.

Requests the widened recent-bundles window on a fixed cadence, deduplicates
into the store, and feeds every successful response to the coverage
estimator. A poll that hits a transient failure asks again at once, up to
``max_retries`` times; nothing sleeps in between, and the next poll slot is
the wait.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.constants import EXPLORER_MAX_RECENT_LIMIT, POLL_INTERVAL_SECONDS
from repro.collector.client import ExplorerClient
from repro.collector.coverage import CoverageEstimator
from repro.collector.store import BundleStore
from repro.errors import (
    ConfigError,
    RateLimitedError,
    ServiceUnavailableError,
    TransportError,
)
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.utils.simtime import SimClock


def _error_kind(exc: Exception) -> str:
    if isinstance(exc, RateLimitedError):
        return "rate_limited"
    if isinstance(exc, ServiceUnavailableError):
        return "unavailable"
    return "transport"


class PollStatus(enum.Enum):
    """Outcome of one poll attempt cycle."""

    OK = "ok"
    NOT_DUE = "not_due"
    FAILED = "failed"


@dataclass(frozen=True)
class PollerConfig:
    """Window size and how many times a failed poll asks again."""

    window_limit: int = EXPLORER_MAX_RECENT_LIMIT
    max_retries: int = 3

    def validate(self) -> None:
        """Raise :class:`ConfigError` on nonsensical settings."""
        if self.window_limit <= 0:
            raise ConfigError("window limit must be positive")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")


@dataclass
class PollResult:
    """What one :meth:`BundlePoller.poll_once` call did."""

    status: PollStatus
    returned: int = 0
    new_bundles: int = 0
    overlapped: bool | None = None
    error: str | None = None


class BundlePoller:
    """Drives the recent-bundles endpoint on the simulated clock."""

    def __init__(
        self,
        client: ExplorerClient,
        store: BundleStore,
        coverage: CoverageEstimator,
        clock: SimClock,
        config: PollerConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or PollerConfig()
        self.config.validate()
        self._client = client
        self._store = store
        self._coverage = coverage
        self._clock = clock
        self._next_due = clock.now()
        self.polls_attempted = 0
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._polls_metric = self.metrics.counter(
            "collector_polls_total", "Poll cycles, by final status."
        )
        self._retries_metric = self.metrics.counter(
            "collector_poll_retries_total",
            "Request attempts beyond the first within a poll cycle.",
        )
        self._errors_metric = self.metrics.counter(
            "collector_poll_errors_total",
            "Transient request errors during polling, by kind.",
        )
        self._returned_metric = self.metrics.counter(
            "collector_bundles_returned_total",
            "Bundle records returned by the recent-bundles endpoint.",
        )
        self._new_metric = self.metrics.counter(
            "collector_bundles_new_total",
            "Returned bundles not previously collected.",
        )
        self._overlap_metric = self.metrics.gauge(
            "collector_overlap_ratio",
            "Running successive-poll overlap fraction (coverage proxy).",
        )

    @property
    def store(self) -> BundleStore:
        """The store polls dedupe into."""
        return self._store

    @property
    def coverage(self) -> CoverageEstimator:
        """The overlap/coverage accumulator."""
        return self._coverage

    def due(self) -> bool:
        """Whether the next poll's scheduled time has arrived."""
        return self._clock.now() >= self._next_due

    def poll_once(self) -> PollResult:
        """Poll now, regardless of schedule.

        A transient error is retried at once, up to ``max_retries`` times;
        any other error propagates.
        """
        self.polls_attempted += 1
        now = self._clock.now()
        self._next_due = now + POLL_INTERVAL_SECONDS
        last_error: str | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                self._retries_metric.inc()
            try:
                records = self._client.recent_bundles(
                    self.config.window_limit
                )
            except (
                RateLimitedError,
                ServiceUnavailableError,
                TransportError,
            ) as exc:
                last_error = str(exc)
                self._errors_metric.inc(kind=_error_kind(exc))
                continue
            new_bundles = self._store.add_bundles(records)
            overlapped = self._coverage.observe_success(
                poll_time=now,
                returned_ids=[record.bundle_id for record in records],
                new_bundles=new_bundles,
            )
            self._polls_metric.inc(status="ok")
            self._returned_metric.inc(len(records))
            self._new_metric.inc(new_bundles)
            self._overlap_metric.set(self._coverage.overlap_fraction())
            return PollResult(
                status=PollStatus.OK,
                returned=len(records),
                new_bundles=new_bundles,
                overlapped=overlapped,
            )
        self._coverage.observe_failure(now)
        self._polls_metric.inc(status="failed")
        self._overlap_metric.set(self._coverage.overlap_fraction())
        return PollResult(status=PollStatus.FAILED, error=last_error)

    def maybe_poll(self) -> PollResult:
        """Poll only if the cadence says a poll is due."""
        if not self.due():
            return PollResult(status=PollStatus.NOT_DUE)
        return self.poll_once()
