"""Per-client rate limiting: buckets, refills, eviction.

The one limiter the archive API, the explorer and the RPC facade admit
through (:class:`repro.utils.ratelimit.ClientRateLimiter`).
"""

import pytest

from repro.errors import ConfigError
from repro.utils.ratelimit import ClientRateLimiter

NAN = float("nan")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestAdmission:
    def test_burst_then_reject(self):
        limiter = ClientRateLimiter(rate=1.0, burst=3.0, time_fn=FakeClock())
        decisions = [limiter.admit("c").allowed for _ in range(4)]
        assert decisions == [True, True, True, False]
        assert limiter.rejections == 1

    def test_rejection_carries_retry_after(self):
        clock = FakeClock()
        limiter = ClientRateLimiter(rate=2.0, burst=1.0, time_fn=clock)
        assert limiter.admit("c").allowed
        rejected = limiter.admit("c")
        assert not rejected.allowed
        # One token at two tokens/second: admissible in half a second.
        assert rejected.retry_after == pytest.approx(0.5)

    def test_refill_readmits(self):
        clock = FakeClock()
        limiter = ClientRateLimiter(rate=1.0, burst=1.0, time_fn=clock)
        assert limiter.admit("c").allowed
        assert not limiter.admit("c").allowed
        clock.now += 1.0
        assert limiter.admit("c").allowed

    def test_clients_are_independent(self):
        limiter = ClientRateLimiter(rate=1.0, burst=1.0, time_fn=FakeClock())
        assert limiter.admit("a").allowed
        assert limiter.admit("b").allowed
        assert not limiter.admit("a").allowed


class TestEviction:
    def test_lru_cap_bounds_the_map(self):
        limiter = ClientRateLimiter(
            rate=1.0, burst=1.0, time_fn=FakeClock(), max_clients=2
        )
        for client in ("a", "b", "c"):
            limiter.admit(client)
        assert len(limiter) == 2

    def test_evicted_client_gets_fresh_bucket(self):
        limiter = ClientRateLimiter(
            rate=0.001, burst=1.0, time_fn=FakeClock(), max_clients=1
        )
        assert limiter.admit("a").allowed
        assert not limiter.admit("a").allowed
        limiter.admit("b")  # evicts "a"
        assert limiter.admit("a").allowed

    def test_max_clients_validated(self):
        with pytest.raises(ConfigError):
            ClientRateLimiter(rate=1.0, burst=1.0, max_clients=0)


class TestConstruction:
    @pytest.mark.parametrize(
        "rate, burst",
        [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -1.0), (1.0, NAN)],
        ids=[
            "rate-zero",
            "rate-negative",
            "burst-zero",
            "burst-negative",
            "burst-nan",
        ],
    )
    def test_non_positive_limit_refused_when_built(self, rate, burst):
        """Refused before any client arrives, not at its first request."""
        with pytest.raises(ConfigError):
            ClientRateLimiter(rate=rate, burst=burst, time_fn=FakeClock())
