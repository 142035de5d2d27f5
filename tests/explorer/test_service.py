"""Explorer service tests: endpoints, limits, rate limiting, instability."""

import pytest

from repro.errors import (
    BadRequestError,
    RateLimitedError,
    ServiceUnavailableError,
)
from repro.explorer.service import ExplorerConfig, ExplorerService
from repro.simulation import SimulationEngine
from repro.simulation.downtime import DowntimeSchedule, DowntimeWindow
from repro.utils.ratelimit import DEFAULT_MAX_CLIENTS
from repro.utils.simtime import SECONDS_PER_DAY
from tests.conftest import tiny_scenario


@pytest.fixture
def served_world():
    world = SimulationEngine(tiny_scenario()).run()
    service = ExplorerService(
        world.block_engine,
        world.ledger,
        world.clock,
        config=ExplorerConfig(requests_per_second=1000.0, burst_capacity=1000.0),
    )
    return world, service


class TestRecentBundles:
    def test_default_limit(self, served_world):
        _, service = served_world
        records = service.recent_bundles()
        assert len(records) <= ExplorerConfig().default_recent_limit

    def test_returns_newest_window(self, served_world):
        world, service = served_world
        records = service.recent_bundles(limit=10)
        expected = world.block_engine.bundle_log[-10:]
        assert [r.bundle_id for r in records] == [
            o.bundle_id for o in expected
        ]

    def test_limit_larger_than_log_returns_all(self, served_world):
        world, service = served_world
        records = service.recent_bundles(limit=10_000_000_000 // 10**6)
        assert len(records) == len(world.block_engine.bundle_log)

    def test_nonpositive_limit_rejected(self, served_world):
        _, service = served_world
        with pytest.raises(BadRequestError):
            service.recent_bundles(limit=0)

    def test_limit_beyond_max_rejected(self, served_world):
        _, service = served_world
        with pytest.raises(BadRequestError, match="exceeds maximum"):
            service.recent_bundles(limit=50_001)

    def test_record_fields_match_outcomes(self, served_world):
        world, service = served_world
        record = service.recent_bundles(limit=1)[0]
        outcome = world.block_engine.bundle_log[-1]
        assert record.bundle_id == outcome.bundle_id
        assert record.tip_lamports == outcome.tip_lamports
        assert record.transaction_ids == tuple(outcome.transaction_ids)


class TestTransactions:
    def test_detail_lookup(self, served_world):
        world, service = served_world
        outcome = world.block_engine.bundle_log[0]
        records = service.transactions(list(outcome.transaction_ids))
        assert len(records) == len(outcome.transaction_ids)
        assert {r.transaction_id for r in records} == set(
            outcome.transaction_ids
        )

    def test_unknown_ids_silently_omitted(self, served_world):
        _, service = served_world
        assert service.transactions(["does-not-exist"]) == []

    def test_empty_request_rejected(self, served_world):
        _, service = served_world
        with pytest.raises(BadRequestError):
            service.transactions([])

    def test_batch_limit_enforced(self, served_world):
        _, service = served_world
        too_many = [f"tx-{i}" for i in range(10_001)]
        with pytest.raises(BadRequestError, match="maximum"):
            service.transactions(too_many)

    def test_record_carries_analysis_fields(self, served_world):
        world, service = served_world
        outcome = next(
            o for o in world.block_engine.bundle_log if o.num_transactions == 3
        )
        records = service.transactions(list(outcome.transaction_ids))
        assert all(r.signer for r in records)
        assert any(r.events for r in records)


class TestRateLimiting:
    def test_burst_then_429(self, served_world):
        world, _ = served_world
        service = ExplorerService(
            world.block_engine,
            world.ledger,
            world.clock,
            config=ExplorerConfig(requests_per_second=0.01, burst_capacity=2.0),
        )
        service.recent_bundles(limit=5)
        service.recent_bundles(limit=5)
        with pytest.raises(RateLimitedError):
            service.recent_bundles(limit=5)

    def test_per_client_isolation(self, served_world):
        world, _ = served_world
        service = ExplorerService(
            world.block_engine,
            world.ledger,
            world.clock,
            config=ExplorerConfig(requests_per_second=0.01, burst_capacity=1.0),
        )
        service.recent_bundles(limit=5, client_id="a")
        service.recent_bundles(limit=5, client_id="b")
        with pytest.raises(RateLimitedError):
            service.recent_bundles(limit=5, client_id="a")

    def test_refills_with_simulated_time(self, served_world):
        world, _ = served_world
        service = ExplorerService(
            world.block_engine,
            world.ledger,
            world.clock,
            config=ExplorerConfig(requests_per_second=1.0, burst_capacity=1.0),
        )
        service.recent_bundles(limit=5)
        with pytest.raises(RateLimitedError):
            service.recent_bundles(limit=5)
        world.clock.advance(2.0)
        service.recent_bundles(limit=5)

    def test_client_buckets_are_capped(self, served_world):
        """Clients name themselves (``X-Client-Id``), so the service
        keeps at most ``DEFAULT_MAX_CLIENTS`` buckets however many ids
        it sees."""
        _, service = served_world
        for index in range(DEFAULT_MAX_CLIENTS + 1):
            service.bundle("e" * 64, client_id=f"client-{index}")
        buckets = service.state()["buckets"]
        assert len(buckets) == DEFAULT_MAX_CLIENTS
        assert "client-0" not in buckets  # the least recently seen went
        assert f"client-{DEFAULT_MAX_CLIENTS}" in buckets


class TestInstability:
    def test_503_inside_window(self, served_world):
        world, _ = served_world
        elapsed_days = world.clock.elapsed() / SECONDS_PER_DAY
        downtime = DowntimeSchedule(
            [DowntimeWindow(elapsed_days - 0.1, elapsed_days + 1.0)]
        )
        service = ExplorerService(
            world.block_engine,
            world.ledger,
            world.clock,
            downtime=downtime,
        )
        with pytest.raises(ServiceUnavailableError):
            service.recent_bundles(limit=5)
        assert service.requests_rejected == 1

    def test_recovers_after_window(self, served_world):
        world, _ = served_world
        elapsed_days = world.clock.elapsed() / SECONDS_PER_DAY
        downtime = DowntimeSchedule(
            [DowntimeWindow(elapsed_days - 0.1, elapsed_days + 0.001)]
        )
        service = ExplorerService(
            world.block_engine,
            world.ledger,
            world.clock,
            downtime=downtime,
        )
        world.clock.advance(SECONDS_PER_DAY)
        assert service.recent_bundles(limit=5)
