"""The fault injector: seed-reproducible decisions, observable outcomes.

Every injection decision is drawn from a per-call child of the campaign
RNG, keyed by ``(endpoint, call-index)``. That gives two properties the
chaos suite depends on:

- **Replayability** — the same seed and plan produce the same fault
  sequence, call for call, regardless of what other subsystems draw;
- **Resumability** — a resumed chaos run replays its collection from the
  seed, so the injector makes the same calls again and reaches the killed
  run's counters and log with nothing restored; a checkpoint keeps only
  the plan fingerprint, which refuses a resume under another plan.

Injected faults are never silent: each one lands in the replayable fault
log (seq, sim time, endpoint, kind and fields; ``repro chaos`` writes it
to ``fault_log.jsonl``) and increments
``faults_injected_total{kind,endpoint}``, so operators can tell injected
failures from organic ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    RateLimitedError,
    ServiceUnavailableError,
    TransportError,
)
from repro.faults.model import ERROR_KINDS, FaultKind, FaultSpec, InjectedFault
from repro.faults.plan import FaultPlan
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.utils.rng import DeterministicRNG
from repro.utils.simtime import SECONDS_PER_DAY, SimClock


@dataclass(frozen=True)
class FaultDecision:
    """One tripped fault, plus the RNG stream that mutations must use."""

    fault: InjectedFault
    spec: FaultSpec | None
    rng: DeterministicRNG

    @property
    def kind(self) -> FaultKind:
        """The fault kind being injected."""
        return self.fault.kind

    @property
    def raises(self) -> bool:
        """Whether this fault surfaces as a raised error."""
        return self.kind in ERROR_KINDS

    def to_error(self) -> Exception:
        """The typed error an error-kind fault surfaces as."""
        kind = self.kind
        if kind is FaultKind.RATE_LIMIT:
            retry_after = self.spec.retry_after if self.spec else None
            return RateLimitedError(
                "injected 429 (fault injection)", retry_after=retry_after
            )
        if kind in (FaultKind.UNAVAILABLE, FaultKind.OUTAGE):
            return ServiceUnavailableError(
                f"injected 503 ({self.fault.detail or 'fault injection'})"
            )
        if kind is FaultKind.TIMEOUT:
            return TransportError("injected timeout (fault injection)")
        if kind is FaultKind.CORRUPT_BODY:
            return TransportError(
                "non-JSON response body: injected corruption"
            )
        raise TypeError(f"{kind} is not an error-kind fault")  # pragma: no cover


class FaultInjector:
    """Turns a :class:`FaultPlan` into a deterministic decision stream."""

    def __init__(
        self,
        plan: FaultPlan,
        rng: DeterministicRNG,
        clock: SimClock,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.plan = plan
        self._rng = rng
        self._clock = clock
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._injected_metric = self.metrics.counter(
            "faults_injected_total",
            "Faults injected by the chaos harness, by kind and endpoint.",
        )
        self._intercepted_metric = self.metrics.counter(
            "faults_intercepted_requests_total",
            "Requests evaluated by the fault injector (injected or not).",
        )
        self._calls: dict[str, int] = {}
        self.log: list[InjectedFault] = []

    # --- the decision procedure -------------------------------------------------

    def _record(
        self, endpoint: str, kind: FaultKind, detail: str, **fields
    ) -> InjectedFault:
        fault = InjectedFault(
            seq=len(self.log),
            time=self._clock.now(),
            endpoint=endpoint,
            kind=kind,
            detail=detail,
            fields=fields,
        )
        self.log.append(fault)
        self._injected_metric.inc(kind=kind.value, endpoint=endpoint)
        return fault

    def intercept(self, endpoint: str) -> FaultDecision | None:
        """Decide the fate of one request against ``endpoint``.

        Returns None when the request should proceed untouched. Scheduled
        outage windows are checked first (they are deterministic in time);
        then each probabilistic spec rolls its dice in plan order, first
        trip wins. Either way the per-endpoint call counter advances and
        the per-call RNG child is consumed identically, so the decision
        stream for one endpoint never depends on traffic to another.
        """
        self._intercepted_metric.inc(endpoint=endpoint)
        count = self._calls.get(endpoint, 0)
        self._calls[endpoint] = count + 1
        call_rng = self._rng.child(f"{endpoint}:{count}")
        day_fraction = self._clock.elapsed() / SECONDS_PER_DAY

        for window in self.plan.outages:
            if window.contains(day_fraction):
                fault = self._record(
                    endpoint,
                    FaultKind.OUTAGE,
                    window.reason,
                    startDay=window.start_day,
                    endDay=window.end_day,
                )
                return FaultDecision(fault=fault, spec=None, rng=call_rng)

        for spec in self.plan.specs:
            if not spec.applies_to(endpoint, day_fraction):
                continue
            if not call_rng.bernoulli(spec.probability):
                continue
            fields: dict = {}
            if spec.kind is FaultKind.RATE_LIMIT and spec.retry_after:
                fields["retryAfter"] = spec.retry_after
            if spec.kind is FaultKind.CLOCK_SKEW:
                fields["skewSeconds"] = spec.skew_seconds
            if spec.kind is FaultKind.TRUNCATE:
                fields["dropFraction"] = spec.drop_fraction
            fault = self._record(
                endpoint, spec.kind, "fault injection", **fields
            )
            return FaultDecision(fault=fault, spec=spec, rng=call_rng)
        return None

    # --- bookkeeping -------------------------------------------------------------

    @property
    def requests_seen(self) -> int:
        """Total requests evaluated across all endpoints."""
        return sum(self._calls.values())

    def counts_by_kind(self) -> dict[str, int]:
        """Injected fault tallies, keyed by kind value (sorted)."""
        counts: dict[str, int] = {}
        for fault in self.log:
            counts[fault.kind.value] = counts.get(fault.kind.value, 0) + 1
        return dict(sorted(counts.items()))

    def fault_log_json(self) -> list[dict]:
        """The full fault log in wire form (one dict per injection)."""
        return [fault.to_json() for fault in self.log]
