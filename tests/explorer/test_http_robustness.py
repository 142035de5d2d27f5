"""HTTP server robustness: malformed and hostile inputs must not crash it."""

import socket

import pytest

from repro.collector.http_client import HttpExplorerClient
from repro.explorer.http_server import explorer_handler
from repro.explorer.service import ExplorerConfig, ExplorerService
from repro.serve.httpcommon import HttpServer
from repro.simulation import SimulationEngine
from tests.conftest import tiny_scenario


@pytest.fixture(scope="module")
def robust_server():
    world = SimulationEngine(tiny_scenario(seed=71)).run()
    service = ExplorerService(
        world.block_engine,
        world.ledger,
        world.clock,
        config=ExplorerConfig(requests_per_second=1000.0, burst_capacity=1000.0),
    )
    with HttpServer() as server:
        server.start(explorer_handler(service))
        yield server


def raw_exchange(port: int, payload: bytes, read: bool = True) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
        if payload:
            conn.sendall(payload)
        if not read:
            return b""
        chunks = bytearray()
        try:
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.extend(chunk)
        except socket.timeout:
            pass
        return bytes(chunks)


class TestHostileInputs:
    def test_garbage_request_line(self, robust_server):
        response = raw_exchange(robust_server.port, b"\x00\x01\x02\r\n\r\n")
        # Server may close silently or answer; it must not die.
        assert self_still_alive(robust_server)

    def test_missing_http_version(self, robust_server):
        raw_exchange(robust_server.port, b"GET /healthz\r\n\r\n")
        assert self_still_alive(robust_server)

    def test_connect_and_hang_up(self, robust_server):
        raw_exchange(robust_server.port, b"", read=False)
        assert self_still_alive(robust_server)

    def test_headers_without_body(self, robust_server):
        response = raw_exchange(
            robust_server.port,
            b"POST /api/v1/transactions HTTP/1.1\r\n"
            b"Host: x\r\nContent-Length: 0\r\n\r\n",
        )
        assert b"400" in response.split(b"\r\n")[0]
        assert self_still_alive(robust_server)

    def test_negative_content_length(self, robust_server):
        raw_exchange(
            robust_server.port,
            b"POST /api/v1/transactions HTTP/1.1\r\n"
            b"Host: x\r\nContent-Length: -5\r\n\r\n",
        )
        assert self_still_alive(robust_server)

    def test_oversized_declared_body(self, robust_server):
        raw_exchange(
            robust_server.port,
            b"POST /api/v1/transactions HTTP/1.1\r\n"
            b"Host: x\r\nContent-Length: 999999999999\r\n\r\n",
        )
        assert self_still_alive(robust_server)

    def test_non_numeric_content_length(self, robust_server):
        raw_exchange(
            robust_server.port,
            b"POST /api/v1/transactions HTTP/1.1\r\n"
            b"Host: x\r\nContent-Length: banana\r\n\r\n",
        )
        assert self_still_alive(robust_server)

    def test_bad_limit_type(self, robust_server):
        response = raw_exchange(
            robust_server.port,
            b"GET /api/v1/bundles/recent?limit=banana HTTP/1.1\r\n"
            b"Host: x\r\n\r\n",
        )
        assert b"400" in response.split(b"\r\n")[0]

    def test_many_sequential_connections(self, robust_server):
        client = HttpExplorerClient("127.0.0.1", robust_server.port)
        for _ in range(25):
            assert client.health()


#: Requests the framing layer rejects without a response.
MALFORMED_REQUESTS = (
    pytest.param(b"\x00\x01\x02\r\n\r\n", id="garbage-request-line"),
    pytest.param(b"GET /healthz\r\n\r\n", id="missing-version"),
    pytest.param(
        b"POST /api/v1/transactions HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        id="negative-length",
    ),
    pytest.param(
        b"POST /api/v1/transactions HTTP/1.1\r\n"
        b"Content-Length: 999999999999\r\n\r\n",
        id="oversized-length",
    ),
    pytest.param(
        b"POST /api/v1/transactions HTTP/1.1\r\n"
        b"Content-Length: banana\r\n\r\n",
        id="non-numeric-length",
    ),
)


@pytest.mark.parametrize("payload", MALFORMED_REQUESTS)
def test_malformed_request_connection_reaches_eof(robust_server, payload):
    """The server closes a connection it will not answer, promptly."""
    address = ("127.0.0.1", robust_server.port)
    with socket.create_connection(address, timeout=1) as conn:
        conn.sendall(payload)
        assert conn.recv(1) == b""


def self_still_alive(server) -> bool:
    """The server answers a well-formed health check after the abuse."""
    client = HttpExplorerClient("127.0.0.1", server.port, timeout=5)
    return client.health()
