"""HTTP server robustness: malformed and hostile inputs must not crash it.

Hand-picked hostile inputs come first, then hypothesis-generated request
framing: ``parse_head`` over arbitrary heads, and a live server fed
arbitrary bytes in arbitrary chunks.
"""

import socket
import string
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.collector.http_client import HttpExplorerClient
from repro.explorer.http_server import explorer_handler
from repro.explorer.service import ExplorerConfig, ExplorerService
from repro.serve.httpcommon import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    HttpServer,
    parse_head,
)
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


def send_chunks(port: int, chunks: list[bytes]) -> bytes:
    """Send ``chunks`` as separate segments, end the request, read all."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            for chunk in chunks:
                conn.sendall(chunk)
                time.sleep(0.0005)
            conn.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server already answered or dropped the request
        received = bytearray()
        try:
            while chunk := conn.recv(65536):
                received += chunk
        except ConnectionResetError:
            pass  # closed with unread request bytes: the answer came first
        return bytes(received)


class TestHostileInputs:
    def test_garbage_request_line(self, robust_server):
        send_chunks(robust_server.port, [b"\x00\x01\x02\r\n\r\n"])
        # Server may close silently or answer; it must not die.
        assert self_still_alive(robust_server)

    def test_missing_http_version(self, robust_server):
        send_chunks(robust_server.port, [b"GET /healthz\r\n\r\n"])
        assert self_still_alive(robust_server)

    def test_connect_and_hang_up(self, robust_server):
        send_chunks(robust_server.port, [])
        assert self_still_alive(robust_server)

    def test_headers_without_body(self, robust_server):
        response = send_chunks(
            robust_server.port,
            [
                b"POST /api/v1/transactions HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: 0\r\n\r\n"
            ],
        )
        assert b"400" in response.split(b"\r\n")[0]
        assert self_still_alive(robust_server)

    def test_negative_content_length(self, robust_server):
        send_chunks(
            robust_server.port,
            [
                b"POST /api/v1/transactions HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: -5\r\n\r\n"
            ],
        )
        assert self_still_alive(robust_server)

    def test_oversized_declared_body(self, robust_server):
        send_chunks(
            robust_server.port,
            [
                b"POST /api/v1/transactions HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: 999999999999\r\n\r\n"
            ],
        )
        assert self_still_alive(robust_server)

    def test_non_numeric_content_length(self, robust_server):
        send_chunks(
            robust_server.port,
            [
                b"POST /api/v1/transactions HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: banana\r\n\r\n"
            ],
        )
        assert self_still_alive(robust_server)

    def test_bad_limit_type(self, robust_server):
        response = send_chunks(
            robust_server.port,
            [
                b"GET /api/v1/bundles/recent?limit=banana HTTP/1.1\r\n"
                b"Host: x\r\n\r\n"
            ],
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


# --- generated request framing ------------------------------------------

#: Header text that latin-1 encodes and no parser splits on.
HEADER_TEXT = string.ascii_letters + string.digits + " -_/.;=,"

#: (method, target, body) triples the explorer answers deterministically:
#: the world's clock stands still, so a route answers the same bytes on
#: every call.
WELL_FORMED = (
    ("GET", "/healthz", b""),
    ("HEAD", "/healthz", b""),
    ("GET", "/api/v1/bundles/recent?limit=2", b""),
    ("HEAD", "/api/v1/bundles/recent?limit=1", b""),
    ("GET", "/api/v1/bundles/recent?limit=banana", b""),
    ("GET", "/api/v1/bundles/zzz", b""),
    ("GET", "/nope", b""),
    ("POST", "/healthz", b"ignored"),
    ("POST", "/api/v1/transactions", b'{"ids": []}'),
    ("POST", "/api/v1/transactions", b"not json"),
)

extra_headers = st.lists(
    st.tuples(
        st.sampled_from(["Accept", "User-Agent", "X-Trace", "host"]),
        st.text(alphabet=HEADER_TEXT, max_size=16),
    ),
    max_size=3,
)


@st.composite
def well_formed_requests(draw) -> bytes:
    method, target, body = draw(st.sampled_from(WELL_FORMED))
    headers = [("Host", "x"), *draw(extra_headers), ("X-Client-Id", "fuzz")]
    if body:
        headers.append(("Content-Length", str(len(body))))
    head = f"{method} {target} HTTP/1.1\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in headers
    )
    return (head + "\r\n").encode("latin-1") + body


@st.composite
def request_like(draw) -> bytes:
    """Near-requests: odd methods, versions, lengths and terminators.

    Each part is usually well formed, so about half of them frame."""
    method = draw(st.sampled_from(["GET", "HEAD", "POST", "get", "head", ""]))
    target = draw(
        st.sampled_from(["/healthz", "/nope", "/api/v1/transactions", ""])
    )
    version = draw(
        st.sampled_from(["HTTP/1.1", "HTTP/1.1", "HTTP/1.0", "", "A B"])
    )
    separator = draw(st.sampled_from([" ", " ", " ", "  ", "\t"]))
    head = separator.join([method, target, version]) + "\r\n"
    for name, value in draw(extra_headers):
        head += f"{name}: {value}\r\n"
    length = draw(
        st.none()
        | st.integers(-3, 40).map(str)
        | st.sampled_from(["", "banana", "999999999999", " 4 ", "+3", "1_0"])
    )
    if length is not None:
        head += f"Content-Length: {length}\r\n"
    terminator = draw(st.sampled_from(["\r\n", "\r\n", "\r\n", "", "\n"]))
    return (head + terminator).encode("latin-1") + draw(
        st.binary(max_size=48)
    )


#: Any bytes at all, near-requests, and requests the server answers.
any_request_bytes = (
    st.binary(max_size=128) | request_like() | well_formed_requests()
)


@st.composite
def chunked(draw, payloads) -> list[bytes]:
    """One payload cut at arbitrary points into non-empty chunks."""
    payload = draw(payloads)
    cuts = draw(
        st.lists(st.integers(1, max(1, len(payload) - 1)), max_size=6)
    )
    bounds = sorted({0, len(payload), *cuts})
    return [payload[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


def padded_head(size: int) -> bytes:
    """A ``/healthz`` head exactly ``size`` bytes long, blank line included."""
    start = b"GET /healthz HTTP/1.1\r\nX-Pad: "
    return start + b"a" * (size - len(start) - 4) + b"\r\n\r\n"


def assert_one_framed_response(response: bytes, request: bytes) -> None:
    """One status line, headers, and exactly ``Content-Length`` bytes of
    body; none for HEAD or 304."""
    head, separator, body = response.partition(b"\r\n\r\n")
    assert separator, response[:200]
    status_line, *lines = head.decode("latin-1").split("\r\n")
    version, status, _reason = status_line.split(" ", 2)
    assert version == "HTTP/1.1"
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    assert headers["connection"] == "close"
    length = int(headers["content-length"])
    bodiless = status == "304" or request.split(b" ", 1)[0].upper() == b"HEAD"
    assert len(body) == (0 if bodiless else length), (status, headers)


def malformed_examples(test):
    """Each of :data:`MALFORMED_REQUESTS` as an explicit example."""
    for param in MALFORMED_REQUESTS:
        test = example(chunks=list(param.values))(test)
    return test


class TestParseHead:
    @settings(max_examples=300, deadline=None)
    @given(any_request_bytes)
    def test_never_raises(self, head):
        parsed = parse_head(head)
        if parsed is not None:
            method, target, headers, length = parsed
            assert method == method.upper()
            assert all(name == name.lower() for name in headers)
            assert 0 <= length <= MAX_BODY_BYTES

    @pytest.mark.parametrize(
        "size, parsed", [(MAX_HEADER_BYTES, True), (MAX_HEADER_BYTES + 1, False)]
    )
    def test_head_limit_counts_the_blank_line(self, size, parsed):
        head = padded_head(size)
        assert len(head) == size
        assert (parse_head(head) is not None) == parsed


class TestGeneratedFraming:
    @settings(max_examples=80, deadline=None)
    @given(chunks=chunked(any_request_bytes))
    @example(chunks=[b""])
    @example(chunks=[b"GET /healthz HTTP/1.1\r\n", b"Host: x\r\n\r\n"])
    @malformed_examples
    def test_any_bytes_get_one_framed_response_or_none(
        self, robust_server, chunks
    ):
        request = b"".join(chunks)
        response = send_chunks(robust_server.port, chunks)
        if response:
            assert_one_framed_response(response, request)
        assert self_still_alive(robust_server)

    @settings(max_examples=60, deadline=None)
    @given(request=well_formed_requests(), data=st.data())
    def test_split_request_gets_the_bytes_sent_whole(
        self, robust_server, request, data
    ):
        whole = send_chunks(robust_server.port, [request])
        chunks = data.draw(chunked(st.just(request)))
        assert send_chunks(robust_server.port, chunks) == whole
        assert_one_framed_response(whole, request)

    def test_head_limit_over_the_wire(self, robust_server):
        at_limit = send_chunks(
            robust_server.port, [padded_head(MAX_HEADER_BYTES)]
        )
        assert at_limit.startswith(b"HTTP/1.1 200 OK")
        past = send_chunks(
            robust_server.port, [padded_head(MAX_HEADER_BYTES + 1)]
        )
        assert past == b""
