"""Per-bundle lookup endpoint tests (service + HTTP)."""

import pytest

from repro.collector.http_client import HttpExplorerClient
from repro.errors import BadRequestError
from repro.explorer.http_server import explorer_handler
from repro.explorer.service import ExplorerConfig, ExplorerService
from repro.serve.httpcommon import HttpServer
from repro.simulation import SimulationEngine
from tests.conftest import tiny_scenario


@pytest.fixture(scope="module")
def lookup_world():
    world = SimulationEngine(tiny_scenario(seed=61)).run()
    service = ExplorerService(
        world.block_engine,
        world.ledger,
        world.clock,
        config=ExplorerConfig(requests_per_second=1000.0, burst_capacity=1000.0),
    )
    return world, service


class TestServiceLookup:
    def test_known_bundle(self, lookup_world):
        world, service = lookup_world
        outcome = world.block_engine.bundle_log[0]
        record = service.bundle(outcome.bundle_id)
        assert record is not None
        assert record.bundle_id == outcome.bundle_id
        assert record.tip_lamports == outcome.tip_lamports

    def test_unknown_bundle_is_none(self, lookup_world):
        _, service = lookup_world
        assert service.bundle("f" * 64) is None

    def test_empty_id_rejected(self, lookup_world):
        _, service = lookup_world
        with pytest.raises(BadRequestError):
            service.bundle("")

    def test_engine_index_consistent_with_log(self, lookup_world):
        world, _ = lookup_world
        for outcome in world.block_engine.bundle_log[:50]:
            assert (
                world.block_engine.get_landed_bundle(outcome.bundle_id)
                is outcome
            )


class TestHttpLookup:
    def test_round_trip_over_http(self, lookup_world):
        world, service = lookup_world
        outcome = world.block_engine.bundle_log[-1]
        with HttpServer() as server:
            server.start(explorer_handler(service))
            client = HttpExplorerClient("127.0.0.1", server.port)
            record = client.bundle(outcome.bundle_id)
            assert record is not None
            assert record.transaction_ids == tuple(outcome.transaction_ids)

    def test_missing_bundle_returns_none(self, lookup_world):
        _, service = lookup_world
        with HttpServer() as server:
            server.start(explorer_handler(service))
            client = HttpExplorerClient("127.0.0.1", server.port)
            assert client.bundle("e" * 64) is None
