"""The full contract of the bounded work queue behind prefetching.

Blocking, close, drain and failure semantics of
:class:`~repro.pipeline.prefetch.BoundedWorkQueue` across real threads —
in particular the shutdown-deadlock regression: a producer parked
against a full queue must be unblocked (with an error, not a hang) when
the consumer closes the queue, and every item buffered before the close
must still drain.
"""

import threading
import time

import pytest

from repro.errors import ConfigError
from repro.pipeline import (
    END_OF_WORK,
    BoundedWorkQueue,
    WorkQueueClosedError,
)


class TestBasics:
    def test_items_drain_in_fifo_order(self):
        q = BoundedWorkQueue(4)
        for item in ("a", "b", "c"):
            q.put(item)
        assert len(q) == 3
        assert [q.get(), q.get(), q.get()] == ["a", "b", "c"]

    def test_high_water_tracks_peak_occupancy(self):
        q = BoundedWorkQueue(4)
        q.put(1)
        q.put(2)
        q.get()
        q.put(3)
        assert q.high_water == 2

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ConfigError):
            BoundedWorkQueue(0)

    def test_get_blocks_until_a_producer_puts(self):
        q = BoundedWorkQueue(1)
        got = []

        def consume():
            got.append(q.get())

        consumer = threading.Thread(target=consume)
        consumer.start()
        q.put("late")
        consumer.join(timeout=5.0)
        assert not consumer.is_alive()
        assert got == ["late"]

    def test_put_blocks_at_capacity_until_a_get_frees_a_slot(self):
        q = BoundedWorkQueue(1)
        q.put("first")
        done = threading.Event()

        def produce():
            q.put("second")  # parks: queue is full
            done.set()

        producer = threading.Thread(target=produce)
        producer.start()
        assert not done.wait(timeout=0.05)
        assert q.get() == "first"
        producer.join(timeout=5.0)
        assert not producer.is_alive()
        assert done.is_set()
        assert q.get() == "second"


class TestClose:
    def test_drain_on_close_then_sentinel_forever(self):
        q = BoundedWorkQueue(4)
        q.put("x")
        q.put("y")
        q.close()
        assert q.get() == "x"
        assert q.get() == "y"
        assert q.get() is END_OF_WORK
        assert q.get() is END_OF_WORK  # idempotent terminal state

    def test_close_wakes_a_blocked_getter(self):
        q = BoundedWorkQueue(1)
        got = []

        def consume():
            got.append(q.get())  # parks: queue is empty

        consumer = threading.Thread(target=consume)
        consumer.start()
        # Give the consumer time to park; if the close wins the race
        # instead, the get still sees a closed, drained queue.
        time.sleep(0.05)
        q.close()
        consumer.join(timeout=5.0)
        assert not consumer.is_alive()
        assert got == [END_OF_WORK]

    def test_put_after_close_raises(self):
        q = BoundedWorkQueue(2)
        q.close()
        with pytest.raises(WorkQueueClosedError):
            q.put("refused")

    def test_close_is_idempotent(self):
        q = BoundedWorkQueue(2)
        q.close()
        q.close()
        assert q.closed

    def test_blocked_put_unblocked_by_close_does_not_deadlock(self):
        """The shutdown-deadlock regression, threaded form: close a full
        queue out from under a parked producer. The producer must exit
        with :class:`WorkQueueClosedError` and the consumer must still
        drain every item buffered before the close."""
        q = BoundedWorkQueue(2)
        q.put(1)
        q.put(2)
        outcome = []

        def produce_forever():
            try:
                item = 3
                while True:
                    q.put(item)  # parks: queue is full
                    item += 1
            except WorkQueueClosedError as exc:
                outcome.append(exc)

        producer = threading.Thread(target=produce_forever)
        producer.start()
        # Give the producer time to park against the bound; if the close
        # wins the race instead, the very next put raises the same error.
        time.sleep(0.05)
        q.close()
        producer.join(timeout=5.0)
        assert not producer.is_alive()
        assert isinstance(outcome[0], WorkQueueClosedError)
        drained = []
        while True:
            item = q.get()
            if item is END_OF_WORK:
                break
            drained.append(item)
        assert drained == [1, 2]


class TestFailure:
    def test_failure_reraises_after_buffered_items_drain(self):
        q = BoundedWorkQueue(4)
        q.put("survivor")
        boom = RuntimeError("reader died")
        q.fail(boom)
        assert q.get() == "survivor"  # drain-on-close still applies
        with pytest.raises(RuntimeError, match="reader died"):
            q.get()

    def test_fail_after_close_is_a_noop(self):
        # Consumer-initiated shutdown outranks a producer error racing it.
        q = BoundedWorkQueue(2)
        q.close()
        q.fail(RuntimeError("too late"))
        assert q.get() is END_OF_WORK

    def test_fail_closes_the_queue(self):
        q = BoundedWorkQueue(2)
        q.fail(RuntimeError("x"))
        assert q.closed
        with pytest.raises(WorkQueueClosedError):
            q.put("refused")
