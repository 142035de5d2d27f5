"""The fault taxonomy: what can go wrong, and the record of it going wrong.

Each fault kind mirrors a failure the paper's scraper actually faced
against the live Jito Explorer (Section 3.1): rate limiting, instability
windows, timeouts, partial or mangled responses, and interface drift that
reordered or re-timestamped listings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigError

#: Endpoints the collection pipeline exercises; () on a spec means "all".
KNOWN_ENDPOINTS = ("recent_bundles", "transactions", "bundle", "health")


class FaultKind(enum.Enum):
    """Every failure mode the injector can produce."""

    #: HTTP 429 with a Retry-After hint (:class:`~repro.errors.RateLimitedError`).
    RATE_LIMIT = "rate_limit"
    #: HTTP 503 (:class:`~repro.errors.ServiceUnavailableError`).
    UNAVAILABLE = "unavailable"
    #: Request deadline elapses with no response (a transport timeout).
    TIMEOUT = "timeout"
    #: Response body cut off mid-JSON; surfaces as a transport error, the
    #: same way :class:`~repro.collector.http_client.HttpExplorerClient`
    #: maps an unparseable body.
    CORRUPT_BODY = "corrupt_body"
    #: Listing silently missing its tail (a short page): the request
    #: *succeeds* but records are dropped — the fault the paper's overlap
    #: check exists to catch.
    TRUNCATE = "truncate"
    #: Records returned out of order (interface drift).
    REORDER = "reorder"
    #: Server-side timestamps skewed by a fixed offset.
    CLOCK_SKEW = "clock_skew"
    #: A scheduled hard outage window (every request fails with 503).
    OUTAGE = "outage"


#: Kinds that surface as a raised error; the rest mutate the response.
ERROR_KINDS = frozenset(
    {
        FaultKind.RATE_LIMIT,
        FaultKind.UNAVAILABLE,
        FaultKind.TIMEOUT,
        FaultKind.CORRUPT_BODY,
        FaultKind.OUTAGE,
    }
)


@dataclass(frozen=True)
class FaultSpec:
    """One probabilistic fault source in a :class:`~repro.faults.plan.FaultPlan`.

    While active (between ``start_day`` and ``end_day``, on matching
    endpoints) each intercepted request independently trips this fault with
    ``probability``, decided by the campaign RNG.
    """

    kind: FaultKind
    probability: float
    endpoints: tuple[str, ...] = ()
    start_day: float = 0.0
    end_day: float = float("inf")
    #: RATE_LIMIT: the Retry-After hint attached to the 429, in seconds.
    retry_after: float | None = None
    #: CLOCK_SKEW: seconds added to server-side timestamps.
    skew_seconds: float = 0.0
    #: TRUNCATE: fraction of the response tail silently dropped.
    drop_fraction: float = 0.5

    def __post_init__(self) -> None:
        if isinstance(self.kind, str):  # tolerate wire-form construction
            object.__setattr__(self, "kind", FaultKind(self.kind))
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.end_day <= self.start_day:
            raise ConfigError(
                f"fault window must have positive length: "
                f"[{self.start_day}, {self.end_day})"
            )
        for endpoint in self.endpoints:
            if endpoint not in KNOWN_ENDPOINTS:
                raise ConfigError(
                    f"unknown endpoint {endpoint!r}; "
                    f"expected one of {KNOWN_ENDPOINTS}"
                )
        if self.retry_after is not None and self.retry_after < 0:
            raise ConfigError("retry_after must be >= 0")
        if not 0.0 < self.drop_fraction <= 1.0:
            raise ConfigError(
                f"drop_fraction must be in (0, 1], got {self.drop_fraction}"
            )

    def applies_to(self, endpoint: str, day_fraction: float) -> bool:
        """Whether this spec is live for a request on ``endpoint`` now."""
        if self.endpoints and endpoint not in self.endpoints:
            return False
        return self.start_day <= day_fraction < self.end_day

    def to_json(self) -> dict:
        """JSON-safe wire form (used by plan files and checkpoints)."""
        record: dict = {
            "kind": self.kind.value,
            "probability": self.probability,
        }
        if self.endpoints:
            record["endpoints"] = list(self.endpoints)
        if self.start_day != 0.0:
            record["startDay"] = self.start_day
        if self.end_day != float("inf"):
            record["endDay"] = self.end_day
        if self.retry_after is not None:
            record["retryAfter"] = self.retry_after
        if self.skew_seconds:
            record["skewSeconds"] = self.skew_seconds
        if self.drop_fraction != 0.5:
            record["dropFraction"] = self.drop_fraction
        return record

    @classmethod
    def from_json(cls, record: dict) -> "FaultSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls(
            kind=FaultKind(record["kind"]),
            probability=float(record["probability"]),
            endpoints=tuple(record.get("endpoints", ())),
            start_day=float(record.get("startDay", 0.0)),
            end_day=float(record.get("endDay", float("inf"))),
            retry_after=(
                float(record["retryAfter"])
                if record.get("retryAfter") is not None
                else None
            ),
            skew_seconds=float(record.get("skewSeconds", 0.0)),
            drop_fraction=float(record.get("dropFraction", 0.5)),
        )


@dataclass(frozen=True)
class OutageWindow:
    """A scheduled hard outage: every request in [start_day, end_day) fails.

    Unlike the probabilistic specs, outages are deterministic in time — they
    model the paper's multi-day collection gaps (Figures 1 and 2) where the
    endpoint was simply unreachable.
    """

    start_day: float
    end_day: float
    reason: str = "scheduled outage"

    def __post_init__(self) -> None:
        if self.end_day <= self.start_day:
            raise ConfigError(
                f"outage window must have positive length: "
                f"[{self.start_day}, {self.end_day})"
            )

    def contains(self, day_fraction: float) -> bool:
        """Whether a fractional day offset falls inside the outage."""
        return self.start_day <= day_fraction < self.end_day

    def to_json(self) -> dict:
        """JSON-safe wire form."""
        return {
            "startDay": self.start_day,
            "endDay": self.end_day,
            "reason": self.reason,
        }

    @classmethod
    def from_json(cls, record: dict) -> "OutageWindow":
        """Rebuild a window from :meth:`to_json` output."""
        return cls(
            start_day=float(record["startDay"]),
            end_day=float(record["endDay"]),
            reason=str(record.get("reason", "scheduled outage")),
        )


@dataclass(frozen=True)
class InjectedFault:
    """One injected fault, as recorded in the replayable fault log."""

    seq: int
    time: float
    endpoint: str
    kind: FaultKind
    detail: str = ""
    fields: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """JSON-safe wire form (one line of ``fault_log.jsonl``)."""
        record = {
            "seq": self.seq,
            "time": self.time,
            "endpoint": self.endpoint,
            "kind": self.kind.value,
        }
        if self.detail:
            record["detail"] = self.detail
        if self.fields:
            record["fields"] = self.fields
        return record
