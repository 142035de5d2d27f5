"""End-to-end HTTP tests: selector-loop server + blocking socket client.

These exercise the full network path the paper's scraper used: real TCP
connections, HTTP framing, JSON bodies, and status-code error mapping.
"""

import json
import socket
import time

import pytest

from repro.collector.http_client import HttpExplorerClient
from repro.errors import (
    BadRequestError,
    RateLimitedError,
    ServiceUnavailableError,
    TransportError,
)
from repro.explorer.http_server import explorer_handler
from repro.explorer.service import ExplorerConfig, ExplorerService
from repro.serve.httpcommon import HttpServer
from repro.simulation import SimulationEngine
from repro.simulation.downtime import DowntimeSchedule, DowntimeWindow
from repro.utils.simtime import SECONDS_PER_DAY
from tests.conftest import tiny_scenario


@pytest.fixture(scope="module")
def http_world():
    """A run world served over real HTTP (module-scoped: sockets are slow)."""
    world = SimulationEngine(tiny_scenario(seed=21)).run()
    service = ExplorerService(
        world.block_engine,
        world.ledger,
        world.clock,
        config=ExplorerConfig(requests_per_second=1000.0, burst_capacity=1000.0),
    )
    with HttpServer() as server:
        server.start(explorer_handler(service))
        client = HttpExplorerClient("127.0.0.1", server.port, timeout=5.0)
        yield world, server, client


class TestHappyPath:
    def test_health(self, http_world):
        _, _, client = http_world
        assert client.health()

    def test_recent_bundles_over_http(self, http_world):
        world, _, client = http_world
        records = client.recent_bundles(limit=10)
        expected = world.block_engine.bundle_log[-10:]
        assert [r.bundle_id for r in records] == [
            o.bundle_id for o in expected
        ]

    def test_transactions_over_http(self, http_world):
        world, _, client = http_world
        outcome = world.block_engine.bundle_log[0]
        records = client.transactions(list(outcome.transaction_ids))
        assert {r.transaction_id for r in records} == set(
            outcome.transaction_ids
        )

    def test_default_limit_when_omitted(self, http_world):
        _, _, client = http_world
        records = client.recent_bundles()
        assert len(records) <= ExplorerConfig().default_recent_limit


class TestErrorMapping:
    def test_bad_limit_maps_to_bad_request(self, http_world):
        _, _, client = http_world
        with pytest.raises(BadRequestError):
            client.recent_bundles(limit=-5)

    def test_unknown_route_is_transport_error(self, http_world):
        _, server, _ = http_world
        client = HttpExplorerClient("127.0.0.1", server.port)
        with pytest.raises(TransportError, match="404"):
            client._request("GET", "/nope")

    def test_wrong_method_is_transport_error(self, http_world):
        _, server, _ = http_world
        client = HttpExplorerClient("127.0.0.1", server.port)
        with pytest.raises(TransportError, match="405"):
            client._request("POST", "/api/v1/bundles/recent")

    def test_connection_refused_is_transport_error(self):
        # Grab a port that is definitely closed.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = HttpExplorerClient("127.0.0.1", port, timeout=0.5)
        with pytest.raises(TransportError):
            client.recent_bundles(limit=1)

    def test_rate_limit_maps_to_429(self):
        world = SimulationEngine(tiny_scenario(seed=22)).run()
        service = ExplorerService(
            world.block_engine,
            world.ledger,
            world.clock,
            config=ExplorerConfig(requests_per_second=0.0001, burst_capacity=1.0),
        )
        with HttpServer() as server:
            server.start(explorer_handler(service))
            client = HttpExplorerClient("127.0.0.1", server.port)
            client.recent_bundles(limit=1)
            with pytest.raises(RateLimitedError):
                client.recent_bundles(limit=1)

    def test_downtime_maps_to_503(self):
        world = SimulationEngine(tiny_scenario(seed=23)).run()
        elapsed_days = world.clock.elapsed() / SECONDS_PER_DAY
        service = ExplorerService(
            world.block_engine,
            world.ledger,
            world.clock,
            downtime=DowntimeSchedule(
                [DowntimeWindow(elapsed_days - 0.1, elapsed_days + 1.0)]
            ),
        )
        with HttpServer() as server:
            server.start(explorer_handler(service))
            client = HttpExplorerClient("127.0.0.1", server.port)
            with pytest.raises(ServiceUnavailableError):
                client.recent_bundles(limit=1)


class TestRawProtocol:
    def _raw_request(self, port: int, payload: bytes) -> bytes:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
            conn.sendall(payload)
            chunks = bytearray()
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.extend(chunk)
        return bytes(chunks)

    def test_malformed_body_is_400(self, http_world):
        _, server, _ = http_world
        # Not JSON, and JSON nested past the interpreter's recursion limit.
        for body in (b"this is not json", b"[" * 100_000 + b"]" * 100_000):
            request = (
                b"POST /api/v1/transactions HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: %d\r\n\r\n" % len(body)
            ) + body
            response = self._raw_request(server.port, request)
            assert b"400" in response.split(b"\r\n")[0]

    def test_response_is_valid_json(self, http_world):
        _, server, _ = http_world
        request = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        response = self._raw_request(server.port, request)
        body = response.split(b"\r\n\r\n", 1)[1]
        assert json.loads(body) == {"status": "ok"}

    def test_content_length_header_accurate(self, http_world):
        _, server, _ = http_world
        request = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        response = self._raw_request(server.port, request)
        head, body = response.split(b"\r\n\r\n", 1)
        declared = int(
            [
                line.split(b":")[1]
                for line in head.split(b"\r\n")
                if line.lower().startswith(b"content-length")
            ][0]
        )
        assert declared == len(body)


def _raw(port: int, payload: bytes) -> tuple[bytes, bytes]:
    """Send ``payload`` on a fresh connection; the response's head and body."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
        conn.sendall(payload)
        chunks = bytearray()
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            chunks.extend(chunk)
    head, _, body = bytes(chunks).partition(b"\r\n\r\n")
    return head, body


def _content_length(head: bytes) -> int:
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length"):
            return int(line.split(b":")[1])
    raise AssertionError(f"no Content-Length in {head!r}")


class TestHeadRequests:
    """HEAD answers with the GET's headers (Content-Length included), no body."""

    def test_head_matches_get_content_length_with_empty_body(
        self, http_world
    ):
        _, server, _ = http_world
        get_head, get_body = _raw(
            server.port, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        head_head, head_body = _raw(
            server.port, b"HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert b"200" in head_head.split(b"\r\n")[0]
        assert head_body == b""
        assert _content_length(head_head) == len(get_body)
        assert _content_length(get_head) == len(get_body)

    def test_head_on_listing_route(self, http_world):
        _, server, _ = http_world
        get_head, get_body = _raw(
            server.port,
            b"GET /api/v1/bundles/recent?limit=3 HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        head_head, head_body = _raw(
            server.port,
            b"HEAD /api/v1/bundles/recent?limit=3 HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        assert head_body == b""
        assert _content_length(head_head) == len(get_body)

    def test_head_on_missing_route_is_bodiless_404(self, http_world):
        _, server, _ = http_world
        head, body = _raw(
            server.port, b"HEAD /nope HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert b"404" in head.split(b"\r\n")[0]
        assert body == b""
        assert _content_length(head) > 0


class TestRequestTargets:
    """A target routes by its path with empty segments dropped, as on the
    archive API: a leading "//" is not a network location."""

    @pytest.mark.parametrize(
        "target",
        [
            "//healthz",
            "//api/v1/bundles/recent?limit=1",
            "//api/v1/bundles//{bundle_id}",
        ],
    )
    def test_leading_double_slash_routes_as_one(self, http_world, target):
        world, server, _ = http_world
        target = target.format(
            bundle_id=world.block_engine.bundle_log[0].bundle_id
        )
        doubled = _raw(
            server.port, f"GET {target} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
        )
        single = _raw(
            server.port,
            f"GET {target[1:]} HTTP/1.1\r\nHost: x\r\n\r\n".encode(),
        )
        assert doubled[0].split(b"\r\n")[0] == b"HTTP/1.1 200 OK"
        assert doubled == single

    @pytest.mark.parametrize("prefix", ["x", "recent"])
    def test_extra_segment_before_a_bundle_id_is_404(
        self, http_world, prefix
    ):
        # A bundle id is the fourth and last segment, as on the archive API.
        world, server, _ = http_world
        bundle_id = world.block_engine.bundle_log[0].bundle_id
        path = f"/api/v1/bundles/{prefix}/{bundle_id}"
        head, body = _raw(
            server.port, f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
        )
        assert head.split(b"\r\n")[0] == b"HTTP/1.1 404 Not Found"
        assert json.loads(body) == {"error": f"no route {path}"}

    def test_head_with_leading_double_slash(self, http_world):
        _, server, _ = http_world
        target = "//api/v1/bundles/recent?limit=1"
        get_head, get_body = _raw(
            server.port, f"GET {target} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
        )
        head_head, head_body = _raw(
            server.port, f"HEAD {target} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
        )
        assert len(json.loads(get_body)["bundles"]) == 1
        assert head_head == get_head
        assert head_body == b""


class TestBusyPort:
    def test_start_raises_the_bind_error_at_once(self, held_port):
        # The server binds when it is built, before any handler exists.
        started = time.monotonic()
        with pytest.raises(OSError):
            HttpServer(port=held_port)
        assert time.monotonic() - started < 2


class TestBindBeforeStart:
    def test_request_sent_before_start_is_answered_after_it(self, http_world):
        """A bound server that has no handler yet queues connections in
        its listen backlog; they are answered once it starts."""
        world, _, _ = http_world
        service = ExplorerService(
            world.block_engine, world.ledger, world.clock
        )
        with HttpServer() as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5
            ) as conn:
                conn.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                server.start(explorer_handler(service))
                response = b""
                while chunk := conn.recv(65536):
                    response += chunk
        assert response.startswith(b"HTTP/1.1 200 OK")
        assert response.endswith(b'{"status": "ok"}')
