"""The one HTTP server's contract, driven with a trivial handler.

No peer holds up another: a client that stalls mid-request, or one that
is slow to read a large response, leaves every other client answered at
once. A request framed across many packets is answered like one sent
whole. Stopping the server closes the connections it still holds.
"""

import socket
import threading
import time

import pytest

from repro.serve.httpcommon import HttpServer, RawBody

#: 8 MiB: larger than the loopback socket buffers, so the response cannot
#: leave the server in one send while its client is not reading.
BIG_BODY = bytes(range(256)) * (8 * 1024 * 1024 // 256)
HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


def handler(method, target, headers, body, client_id):
    if target == "/big":
        return 200, RawBody(BIG_BODY, "application/octet-stream"), {}
    return 200, {"status": "ok"}, {}


@pytest.fixture
def server():
    with HttpServer() as srv:
        srv.start(handler)
        yield srv


def connect(port: int, timeout: float = 5) -> socket.socket:
    return socket.create_connection(("127.0.0.1", port), timeout=timeout)


def read_all(conn: socket.socket) -> bytes:
    chunks = []
    while chunk := conn.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


def healthz(port: int) -> bytes:
    """One ``/healthz`` exchange that must finish within 2 s."""
    with connect(port, timeout=2) as conn:
        conn.sendall(HEALTHZ)
        return read_all(conn)


class TestNoPeerBlocksAnother:
    def test_stalled_half_head_does_not_delay_another_client(self, server):
        with connect(server.port) as stalled:
            stalled.sendall(b"GET /healthz HTTP/1.1\r\nHo")
            assert healthz(server.port).startswith(b"HTTP/1.1 200 OK")
            assert healthz(server.port).startswith(b"HTTP/1.1 200 OK")

    def test_slow_reader_gets_every_byte_of_a_large_body(self, server):
        with connect(server.port) as slow:
            slow.sendall(b"GET /big HTTP/1.1\r\nHost: x\r\n\r\n")
            # The response has started and now waits on this client's
            # receive window; another client is answered meanwhile.
            first = slow.recv(16)
            assert healthz(server.port).startswith(b"HTTP/1.1 200 OK")
            time.sleep(0.2)
            response = first + read_all(slow)
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert f"Content-Length: {len(BIG_BODY)}".encode() in head
        assert body == BIG_BODY

    def test_request_sent_one_byte_at_a_time_is_answered(self, server):
        with connect(server.port) as conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for index in range(len(HEALTHZ)):
                conn.sendall(HEALTHZ[index:index + 1])
                time.sleep(0.001)
            response = read_all(conn)
        assert response.startswith(b"HTTP/1.1 200 OK")
        assert response.endswith(b'{"status": "ok"}')


class TestStop:
    def test_stop_closes_a_stalled_connection(self):
        served, closed = [], []

        def traced(*request):
            served.append(threading.get_ident())
            return handler(*request)

        with HttpServer() as server:
            server.start(
                traced, on_close=lambda: closed.append(threading.get_ident())
            )
            with connect(server.port, timeout=2) as stalled:
                stalled.sendall(b"GET /healthz HTTP/1.1\r\nHo")
                # Accepted before the later /healthz (the backlog is FIFO).
                assert healthz(server.port).startswith(b"HTTP/1.1 200 OK")
                server.stop()
                assert stalled.recv(1) == b""
        # Once, on the thread that served, though the context manager
        # stopped the server a second time.
        assert len(served) == 1
        assert closed == served
        assert closed[0] != threading.get_ident()

    def test_stop_raises_what_on_close_raised(self):
        def fail():
            raise RuntimeError("close failed")

        server = HttpServer()
        server.start(handler, on_close=fail)
        with pytest.raises(RuntimeError, match="close failed"):
            server.stop()
        server.stop()  # raised once; stopping again is quiet
