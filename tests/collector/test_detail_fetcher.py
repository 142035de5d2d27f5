"""Detail fetcher tests: targeting, batching, pacing."""

import pytest

from repro.collector.detail_fetcher import DetailFetcherConfig, TxDetailFetcher
from repro.collector.store import BundleStore
from repro.errors import ConfigError, ServiceUnavailableError
from repro.explorer.models import BundleRecord, TransactionRecord
from repro.utils.simtime import SimClock


def bundle(i: int, length: int):
    return BundleRecord(
        bundle_id=f"b{i}",
        slot=i,
        landed_at=float(i),
        tip_lamports=1_000,
        transaction_ids=tuple(f"t{i}-{j}" for j in range(length)),
    )


class FakeClient:
    def __init__(self, fail_times: int = 0):
        self.fail_times = fail_times
        self.calls = 0
        self.requests: list[list[str]] = []

    def recent_bundles(self, limit=None):  # pragma: no cover - unused
        return []

    def transactions(self, ids):
        self.calls += 1
        if self.fail_times > 0:
            self.fail_times -= 1
            raise ServiceUnavailableError("down")
        self.requests.append(list(ids))
        return [
            TransactionRecord(
                transaction_id=tx_id,
                slot=0,
                block_time=0.0,
                signer="s",
                signers=("s",),
                fee_lamports=5_000,
            )
            for tx_id in ids
        ]


def make_fetcher(store, client=None, **config_kwargs):
    clock = SimClock()
    fetcher = TxDetailFetcher(
        client or FakeClient(),
        store,
        clock,
        config=DetailFetcherConfig(**config_kwargs),
    )
    return fetcher, clock


class TestTargeting:
    def test_only_target_length_fetched(self):
        store = BundleStore()
        store.add_bundles([bundle(1, 1), bundle(2, 3), bundle(3, 5)])
        fetcher, _ = make_fetcher(store)
        pending = fetcher.pending_transaction_ids()
        assert pending == ["t2-0", "t2-1", "t2-2"]

    def test_already_detailed_not_refetched(self):
        store = BundleStore()
        store.add_bundles([bundle(2, 3)])
        fetcher, _ = make_fetcher(store)
        fetcher.fetch_once()
        assert fetcher.pending_transaction_ids() == []

    def test_fetch_stores_details(self):
        store = BundleStore()
        store.add_bundles([bundle(2, 3)])
        fetcher, _ = make_fetcher(store)
        result = fetcher.fetch_once()
        assert result.stored == 3
        assert store.fully_detailed_bundles(3)


class TestBatching:
    def test_batch_limit_respected(self):
        store = BundleStore()
        store.add_bundles([bundle(i, 3) for i in range(10)])
        client = FakeClient()
        fetcher, _ = make_fetcher(store, client=client, batch_limit=7)
        fetcher.fetch_once()
        assert len(client.requests[0]) == 7

    def test_drain_fetches_everything(self):
        store = BundleStore()
        store.add_bundles([bundle(i, 3) for i in range(10)])
        fetcher, _ = make_fetcher(store, batch_limit=7)
        stored = fetcher.drain()
        assert stored == 30
        assert fetcher.pending_transaction_ids() == []

    def test_drain_advances_clock_by_spacing(self):
        store = BundleStore()
        store.add_bundles([bundle(i, 3) for i in range(4)])
        fetcher, clock = make_fetcher(store, batch_limit=3, spacing_seconds=120)
        start = clock.now()
        fetcher.drain()
        assert clock.now() >= start + 120


class TestPacing:
    def test_not_due_immediately_after_fetch(self):
        store = BundleStore()
        store.add_bundles([bundle(1, 3), bundle(2, 3)])
        fetcher, clock = make_fetcher(store, batch_limit=3)
        assert fetcher.due()
        fetcher.fetch_once()
        assert not fetcher.due()
        assert fetcher.maybe_fetch() is None
        clock.advance(DetailFetcherConfig().spacing_seconds)
        assert fetcher.maybe_fetch() is not None

    def test_maybe_fetch_skips_when_nothing_pending(self):
        store = BundleStore()
        fetcher, _ = make_fetcher(store)
        assert fetcher.maybe_fetch() is None

    def test_empty_cycle_does_not_consume_a_spacing_slot(self):
        # An empty cycle sends no request, so the polite spacing must not
        # apply: work arriving a moment later is fetched immediately
        # instead of waiting out a full inter-batch interval.
        store = BundleStore()
        fetcher, clock = make_fetcher(store, spacing_seconds=120)
        result = fetcher.fetch_once()
        assert result.requested == 0 and not result.failed
        assert fetcher.due()
        store.add_bundles([bundle(1, 3)])
        clock.advance(1.0)
        fetched = fetcher.maybe_fetch()
        assert fetched is not None and fetched.stored == 3

    def test_nonempty_cycle_still_spaces_batches(self):
        store = BundleStore()
        store.add_bundles([bundle(1, 3)])
        fetcher, clock = make_fetcher(store, spacing_seconds=120)
        fetcher.fetch_once()
        store.add_bundles([bundle(2, 3)])
        assert not fetcher.due()
        clock.advance(120)
        assert fetcher.due()


class TestFailures:
    def test_failure_reported_not_raised(self):
        store = BundleStore()
        store.add_bundles([bundle(1, 3)])
        fetcher, _ = make_fetcher(store, client=FakeClient(fail_times=1))
        result = fetcher.fetch_once()
        assert result.failed
        assert fetcher.batches_failed == 1

    def test_retries_exhausted_fails_batch_at_once(self):
        store = BundleStore()
        store.add_bundles([bundle(1, 3)])
        client = FakeClient(fail_times=100)
        fetcher, clock = make_fetcher(store, client=client, max_retries=2)
        start = clock.now()
        result = fetcher.fetch_once()
        assert result.failed and result.error == "down"
        # Every retry goes out at once: max_retries + 1 requests, and the
        # sim clock never moves inside the cycle.
        assert client.calls == 3
        assert clock.now() == start

    def test_drain_recovers_nothing_on_persistent_failure(self):
        store = BundleStore()
        store.add_bundles([bundle(1, 3)])
        fetcher, _ = make_fetcher(store, client=FakeClient(fail_times=100))
        assert fetcher.drain() == 0


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_length": 0},
            {"target_length": 6},
            {"batch_limit": 0},
            {"spacing_seconds": -1},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            DetailFetcherConfig(**kwargs).validate()
