"""Token bucket tests against a controllable clock."""

import pytest

from repro.errors import ConfigError
from repro.utils.ratelimit import TokenBucket


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def clock():
    return FakeClock()


class TestTokenBucket:
    def test_starts_full(self, clock):
        bucket = TokenBucket(rate=1.0, capacity=5.0, time_fn=clock)
        assert bucket.available() == 5.0

    def test_burst_up_to_capacity(self, clock):
        bucket = TokenBucket(rate=1.0, capacity=3.0, time_fn=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refills_over_time(self, clock):
        bucket = TokenBucket(rate=2.0, capacity=2.0, time_fn=clock)
        assert bucket.try_acquire(2.0)
        assert not bucket.try_acquire()
        clock.t += 0.5  # refills one token
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_capacity(self, clock):
        bucket = TokenBucket(rate=10.0, capacity=4.0, time_fn=clock)
        clock.t += 100.0
        assert bucket.available() == 4.0

    def test_rejected_request_consumes_nothing(self, clock):
        bucket = TokenBucket(rate=1.0, capacity=2.0, time_fn=clock)
        assert not bucket.try_acquire(3.0)
        assert bucket.available() == 2.0

    def test_seconds_until_available(self, clock):
        bucket = TokenBucket(rate=1.0, capacity=2.0, time_fn=clock)
        bucket.try_acquire(2.0)
        assert bucket.seconds_until_available(1.0) == pytest.approx(1.0)

    def test_seconds_until_available_zero_when_ready(self, clock):
        bucket = TokenBucket(rate=1.0, capacity=2.0, time_fn=clock)
        assert bucket.seconds_until_available() == 0.0

    def test_request_beyond_capacity_raises(self, clock):
        bucket = TokenBucket(rate=1.0, capacity=2.0, time_fn=clock)
        with pytest.raises(ConfigError):
            bucket.seconds_until_available(3.0)

    def test_nonpositive_acquire_raises(self, clock):
        bucket = TokenBucket(rate=1.0, capacity=2.0, time_fn=clock)
        with pytest.raises(ConfigError):
            bucket.try_acquire(0)

    def test_invalid_construction(self, clock):
        with pytest.raises(ConfigError):
            TokenBucket(rate=0, capacity=1, time_fn=clock)
        with pytest.raises(ConfigError):
            TokenBucket(rate=1, capacity=0, time_fn=clock)


class TestTokenBucketEdgeCases:
    def test_refill_at_exact_capacity_boundary(self, clock):
        # Refill that lands exactly on capacity must not overshoot, and the
        # very next acquire at full capacity must succeed.
        bucket = TokenBucket(rate=2.0, capacity=4.0, time_fn=clock)
        assert bucket.try_acquire(4.0)
        clock.t += 2.0  # refills exactly 4 tokens, exactly to capacity
        assert bucket.available() == 4.0
        assert bucket.try_acquire(4.0)
        assert not bucket.try_acquire(0.001)

    def test_zero_elapsed_time_calls(self, clock):
        # Repeated calls at the same timestamp must neither refill nor
        # drift: only explicit acquisitions change the level.
        bucket = TokenBucket(rate=100.0, capacity=2.0, time_fn=clock)
        assert bucket.try_acquire()
        for _ in range(5):
            assert bucket.available() == 1.0
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_clock_going_backwards_does_not_drain(self, clock):
        bucket = TokenBucket(rate=1.0, capacity=2.0, time_fn=clock)
        clock.t = 10.0
        bucket.try_acquire()
        clock.t = 5.0  # regression: elapsed clamps to zero
        assert bucket.available() == 1.0

    def test_admitted_and_rejected_tallies(self, clock):
        bucket = TokenBucket(rate=1.0, capacity=2.0, time_fn=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        assert not bucket.try_acquire()
        assert bucket.admitted == 2
        assert bucket.rejected == 2

    def test_fractional_refill_accumulates(self, clock):
        # Sub-token refills accumulate across many small steps.
        bucket = TokenBucket(rate=1.0, capacity=1.0, time_fn=clock)
        assert bucket.try_acquire()
        for _ in range(8):
            clock.t += 0.125  # binary-exact so the sum lands on 1.0
            bucket.available()
        assert bucket.available() == 1.0
        assert bucket.try_acquire()
