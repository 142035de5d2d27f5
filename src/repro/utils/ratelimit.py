"""Token-bucket rate limiting.

Used on both sides of the measurement pipeline: the simulated Jito Explorer
enforces per-client request limits (the paper notes RPC providers cap calls
and "compute units"), and the collector throttles itself to the paper's
two-minute cadence to keep "reasonable load on Jito's servers".
:class:`ClientRateLimiter` is the one per-client map of buckets: the
explorer, the RPC facade and the archive API all admit through it.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigError

#: Client buckets kept before least-recently-seen eviction.
DEFAULT_MAX_CLIENTS = 4_096


def _check_limits(rate: float, capacity: float) -> None:
    # Written so that NaN, which compares false both ways, is refused too.
    if not rate > 0:
        raise ConfigError(f"token rate must be positive, got {rate}")
    if not capacity > 0:
        raise ConfigError(f"bucket capacity must be positive, got {capacity}")


class TokenBucket:
    """Classic token-bucket limiter driven by an injectable time source.

    The bucket holds at most ``capacity`` tokens and refills at ``rate``
    tokens per second. Each admitted request consumes tokens; a request that
    cannot be satisfied is rejected without consuming anything.
    """

    def __init__(
        self,
        rate: float,
        capacity: float,
        time_fn: Callable[[], float],
    ) -> None:
        _check_limits(rate, capacity)
        self._rate = rate
        self._capacity = capacity
        self._time_fn = time_fn
        self._tokens = capacity
        self._last_refill = time_fn()

    @property
    def capacity(self) -> float:
        """Maximum number of tokens the bucket can hold."""
        return self._capacity

    def _refill(self) -> None:
        now = self._time_fn()
        elapsed = max(0.0, now - self._last_refill)
        self._tokens = min(self._capacity, self._tokens + elapsed * self._rate)
        self._last_refill = now

    def available(self) -> float:
        """Tokens currently available (after refill accounting)."""
        self._refill()
        return self._tokens

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Consume ``tokens`` if available; return whether admission succeeded."""
        if tokens <= 0:
            raise ConfigError(f"must acquire a positive token count, got {tokens}")
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    def seconds_until_available(self, tokens: float = 1.0) -> float:
        """How long a caller must wait before ``tokens`` would be admitted.

        Returns 0.0 if the request would be admitted right now. Requests
        larger than the bucket capacity can never be admitted; for those this
        raises :class:`ConfigError` rather than returning infinity silently.
        """
        if tokens > self._capacity:
            raise ConfigError(
                f"requested {tokens} tokens exceeds capacity {self._capacity}"
            )
        self._refill()
        deficit = tokens - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit / self._rate


@dataclass(frozen=True)
class Admission:
    """One admission decision; ``retry_after`` is set on rejection."""

    allowed: bool
    retry_after: float | None = None


#: Every admitted request shares one decision: the explorer admits on each
#: request of a campaign, and building a frozen dataclass costs about a
#: microsecond.
_ADMITTED = Admission(allowed=True)


class ClientRateLimiter:
    """Token buckets keyed by client id, with LRU eviction.

    Rate and burst are checked when the limiter is built, so a bad limit
    is refused before any request arrives. The map holds at most
    ``max_clients`` buckets: a server whose clients choose their own ids
    (``X-Client-Id``) cannot grow it without bound. An evicted client's
    next request gets a fresh (full) bucket — strictly more permissive
    than remembering it, so eviction can never turn into a
    denial-of-service against a legitimate quiet client.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        time_fn: Callable[[], float] | None = None,
        max_clients: int = DEFAULT_MAX_CLIENTS,
    ) -> None:
        _check_limits(rate, burst)
        if max_clients < 1:
            raise ConfigError(
                f"max_clients must be >= 1, got {max_clients}"
            )
        self._rate = rate
        self._burst = burst
        self._time_fn = time_fn or time.monotonic
        self._max_clients = max_clients
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()

    def __len__(self) -> int:
        return len(self._buckets)

    def _bucket(self, client_id: str) -> TokenBucket:
        bucket = self._buckets.get(client_id)
        if bucket is None:
            bucket = TokenBucket(
                rate=self._rate,
                capacity=self._burst,
                time_fn=self._time_fn,
            )
            self._buckets[client_id] = bucket
            if len(self._buckets) > self._max_clients:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(client_id)
        return bucket

    def admit(self, client_id: str) -> Admission:
        """Admit or reject one request from ``client_id``.

        A rejection carries the bucket's earliest-admission estimate so the
        server can send an honest ``Retry-After``.
        """
        bucket = self._bucket(client_id)
        if bucket.try_acquire():
            return _ADMITTED
        return Admission(
            allowed=False,
            retry_after=bucket.seconds_until_available(),
        )
