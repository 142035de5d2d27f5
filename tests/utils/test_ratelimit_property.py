"""Property tests for the token bucket under bursty arrival patterns.

Hypothesis generates arbitrary inter-arrival gap sequences — including
tight bursts of zero-gap arrivals — and checks the two invariants a rate
limiter must never break:

1. **Window bound**: over any window of the arrival sequence the number of
   admissions never exceeds ``capacity + rate * window`` — the bucket can
   burst up to its capacity but the sustained rate is capped.
2. **No starvation**: after any sequence of rejections, a caller who waits
   ``seconds_until_available()`` (bounded by ``capacity / rate``) is
   guaranteed admission.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.ratelimit import TokenBucket

gaps = st.lists(
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    min_size=1,
    max_size=80,
)
rates = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
capacities = st.floats(min_value=1.0, max_value=20.0, allow_nan=False)

EPSILON = 1e-6


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def run_arrivals(rate, capacity, gap_list):
    """Drive one request per arrival; return (clock, bucket, admit log)."""
    clock, bucket, admitted_at, _ = run_decisions(rate, capacity, gap_list)
    return clock, bucket, admitted_at


def run_decisions(rate, capacity, gap_list):
    """:func:`run_arrivals`, plus every decision the bucket gave back."""
    clock = FakeClock()
    bucket = TokenBucket(rate=rate, capacity=capacity, time_fn=clock)
    admitted_at = []
    decisions = []
    for gap in gap_list:
        clock.now += gap
        decisions.append(bucket.try_acquire())
        if decisions[-1]:
            admitted_at.append(clock.now)
    return clock, bucket, admitted_at, decisions


class TestWindowBound:
    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(rate=rates, capacity=capacities, gap_list=gaps)
    def test_admissions_never_exceed_rate_over_any_window(
        self, rate, capacity, gap_list
    ):
        _, _, admitted_at = run_arrivals(rate, capacity, gap_list)
        for i in range(len(admitted_at)):
            for j in range(i, len(admitted_at)):
                window = admitted_at[j] - admitted_at[i]
                count = j - i + 1
                assert count <= capacity + rate * window + EPSILON

    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(rate=rates, capacity=capacities, gap_list=gaps)
    def test_zero_gap_burst_admits_at_most_capacity(
        self, rate, capacity, gap_list
    ):
        clock = FakeClock()
        bucket = TokenBucket(rate=rate, capacity=capacity, time_fn=clock)
        burst_admitted = sum(bucket.try_acquire() for _ in range(100))
        assert burst_admitted <= int(capacity + EPSILON)

    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(rate=rates, capacity=capacities, gap_list=gaps)
    def test_tallies_account_for_every_arrival(self, rate, capacity, gap_list):
        _, _, admitted_at, decisions = run_decisions(rate, capacity, gap_list)
        assert decisions.count(True) == len(admitted_at)
        assert decisions.count(True) + decisions.count(False) == len(
            gap_list
        )


class TestNoStarvation:
    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(rate=rates, capacity=capacities, gap_list=gaps)
    def test_waiting_out_the_deficit_guarantees_admission(
        self, rate, capacity, gap_list
    ):
        clock, bucket, _ = run_arrivals(rate, capacity, gap_list)
        wait = bucket.seconds_until_available()
        assert 0.0 <= wait <= capacity / rate + EPSILON
        clock.now += wait + EPSILON
        assert bucket.try_acquire()

    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(rate=rates, capacity=capacities)
    def test_draining_burst_never_starves_a_patient_caller(
        self, rate, capacity
    ):
        """Even after a 100-request burst empties the bucket, waiting one
        full refill period always readmits."""
        clock = FakeClock()
        bucket = TokenBucket(rate=rate, capacity=capacity, time_fn=clock)
        for _ in range(100):
            bucket.try_acquire()
        clock.now += capacity / rate + EPSILON
        assert bucket.try_acquire()
