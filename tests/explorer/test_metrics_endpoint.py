"""``GET /metrics`` over a real socket: Prometheus text from a live service."""

import urllib.request

import pytest

from repro.explorer.http_server import explorer_handler
from repro.explorer.service import ExplorerConfig, ExplorerService
from repro.serve.httpcommon import HttpServer
from repro.obs.registry import MetricsRegistry
from repro.simulation import SimulationEngine
from tests.conftest import tiny_scenario


@pytest.fixture(scope="module")
def metrics_server():
    """An instrumented explorer served over HTTP (module-scoped)."""
    world = SimulationEngine(tiny_scenario(seed=31)).run()
    service = ExplorerService(
        world.block_engine,
        world.ledger,
        world.clock,
        config=ExplorerConfig(
            requests_per_second=1000.0, burst_capacity=1000.0
        ),
        metrics=MetricsRegistry(time_fn=world.clock.now),
    )
    with HttpServer() as server:
        server.start(explorer_handler(service))
        yield service, server


def fetch(port: int, path: str) -> tuple[int, dict, bytes]:
    """GET a path, returning (status, headers, body)."""
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=5.0
    ) as response:
        return response.status, dict(response.headers), response.read()


class TestMetricsEndpoint:
    def test_prometheus_text_matches_service_counters(self, metrics_server):
        service, server = metrics_server
        service.recent_bundles(limit=1, client_id="probe")
        service.recent_bundles(limit=1, client_id="probe")
        status, headers, body = fetch(server.port, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        assert "# TYPE explorer_requests_total counter" in text
        served = service.metrics.counter("explorer_requests_total").value(
            endpoint="recent_bundles"
        )
        assert (
            f'explorer_requests_total{{endpoint="recent_bundles"}} '
            f"{served:.0f}" in text
        )

    def test_metrics_is_not_rate_limited(self, metrics_server):
        _, server = metrics_server
        for _ in range(3):
            status, _, _ = fetch(server.port, "/metrics")
            assert status == 200

    def test_post_metrics_is_405(self, metrics_server):
        _, server = metrics_server
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/metrics",
            data=b"{}",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=5.0)
        assert err.value.code == 405

    def test_scraping_metrics_shows_up_in_metrics(self, metrics_server):
        # /metrics itself is not counted as an API request: scraping must
        # not pollute the measurement counters.
        service, server = metrics_server
        before = service.metrics.counter("explorer_requests_total").value(
            endpoint="recent_bundles"
        )
        fetch(server.port, "/metrics")
        after = service.metrics.counter("explorer_requests_total").value(
            endpoint="recent_bundles"
        )
        assert after == before
