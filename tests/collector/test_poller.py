"""Bundle poller tests, using a scriptable fake client."""

import pytest

from repro.collector.coverage import CoverageEstimator
from repro.collector.poller import BundlePoller, PollerConfig, PollStatus
from repro.collector.store import BundleStore
from repro.constants import POLL_INTERVAL_SECONDS
from repro.errors import (
    BadRequestError,
    ConfigError,
    ServiceUnavailableError,
)
from repro.explorer.models import BundleRecord
from repro.utils.simtime import SimClock


def record(i: int):
    return BundleRecord(
        bundle_id=f"b{i}",
        slot=i,
        landed_at=float(i),
        tip_lamports=1_000,
        transaction_ids=(f"t{i}",),
    )


class ScriptedClient:
    """Returns queued responses; exceptions are raised in order."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def recent_bundles(self, limit=None):
        self.calls += 1
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    def transactions(self, ids):  # pragma: no cover - unused here
        return []


def make_poller(script=(), max_retries=2, client=None):
    clock = SimClock()
    store = BundleStore()
    coverage = CoverageEstimator()
    poller = BundlePoller(
        client or ScriptedClient(script),
        store,
        coverage,
        clock,
        config=PollerConfig(window_limit=100, max_retries=max_retries),
    )
    return poller, clock


class TestPolling:
    def test_successful_poll_stores_records(self):
        poller, _ = make_poller([[record(1), record(2)]])
        result = poller.poll_once()
        assert result.status is PollStatus.OK
        assert result.returned == 2
        assert result.new_bundles == 2
        assert len(poller.store) == 2

    def test_second_poll_reports_overlap(self):
        poller, _ = make_poller(
            [[record(1), record(2)], [record(2), record(3)]]
        )
        poller.poll_once()
        result = poller.poll_once()
        assert result.overlapped is True
        assert result.new_bundles == 1

    def test_transient_errors_retried(self):
        poller, _ = make_poller(
            [ServiceUnavailableError("down"), [record(1)]]
        )
        result = poller.poll_once()
        assert result.status is PollStatus.OK
        assert len(poller.store) == 1

    def test_retry_budget_exhaustion_fails_poll(self):
        client = ScriptedClient([ServiceUnavailableError("down")] * 5)
        poller, clock = make_poller(client=client, max_retries=2)
        start = clock.now()
        result = poller.poll_once()
        assert result.status is PollStatus.FAILED
        assert "down" in result.error
        assert poller.coverage.failed_polls == 1
        # Every retry goes out at once: max_retries + 1 requests, and the
        # sim clock never moves inside the cycle.
        assert client.calls == 3
        assert clock.now() == start

    def test_bad_request_propagates(self):
        poller, _ = make_poller([BadRequestError("bad limit")])
        with pytest.raises(BadRequestError):
            poller.poll_once()


class TestCadence:
    def test_due_initially(self):
        poller, _ = make_poller([[record(1)]])
        assert poller.due()

    def test_not_due_right_after_poll(self):
        poller, _ = make_poller([[record(1)], [record(2)]])
        poller.poll_once()
        assert not poller.due()
        assert poller.maybe_poll().status is PollStatus.NOT_DUE

    def test_due_after_interval(self):
        poller, clock = make_poller([[record(1)], [record(2)]])
        poller.poll_once()
        clock.advance(POLL_INTERVAL_SECONDS)
        assert poller.due()
        assert poller.maybe_poll().status is PollStatus.OK


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_limit": 0},
            {"max_retries": -1},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            PollerConfig(**kwargs).validate()
