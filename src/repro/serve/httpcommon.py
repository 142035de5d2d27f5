"""HTTP/1.1 serving shared by the explorer and the archive API.

Both servers in this repository speak the same minimal dialect: one
request per connection, explicit ``Content-Length``, ``Connection:
close``. Request parsing, response writing and the server itself live
here once, so the two cannot drift — in particular, both answer ``HEAD``
with the exact headers (including ``Content-Length``) their ``GET`` would
have sent, minus the body, which is what polite cache-validating clients
rely on. :class:`HttpServer` runs either dispatch core: the explorer's
routing (``repro serve``) or :class:`repro.serve.app.ArchiveApiApp`
(``repro api``).
"""

from __future__ import annotations

import asyncio
import socket
import threading
from typing import Callable

from repro.utils.serialization import encode_json

#: Request head larger than this is dropped without a response.
MAX_HEADER_BYTES = 64 * 1024
#: Bodies larger than this are dropped without a response.
MAX_BODY_BYTES = 16 * 1024 * 1024
#: Listen backlog; sized for the bench harness's connection bursts (1,000+
#: clients connecting at once would otherwise drop SYNs before the loop
#: ever saw them).
LISTEN_BACKLOG = 2_048

STATUS_TEXT = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

JSON_CONTENT_TYPE = "application/json"
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: ``handler(method, target, headers, body, client_id) -> (status,
#: payload, headers)``: one request in, one response out.
Handler = Callable[
    [str, str, dict[str, str], bytes, str], tuple[int, object, dict[str, str]]
]


class PlainText:
    """Marks a dispatch payload as pre-rendered text, not JSON."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


class RawBody:
    """A pre-encoded response body with an explicit content type.

    The archive API renders canonical JSON bytes once (they feed the ETag)
    and hands the same bytes to the writer, so the digest a client
    validates against is computed over exactly what went on the wire.
    """

    __slots__ = ("content", "content_type")

    def __init__(self, content: bytes, content_type: str) -> None:
        self.content = content
        self.content_type = content_type


def encode_payload(payload) -> tuple[bytes, str]:
    """Encode a dispatch payload into (body bytes, content type)."""
    if isinstance(payload, RawBody):
        return payload.content, payload.content_type
    if isinstance(payload, PlainText):
        return payload.text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE
    if payload is None:
        return b"", JSON_CONTENT_TYPE
    return encode_json(payload).encode("utf-8"), JSON_CONTENT_TYPE


async def read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one request; None on framing errors (connection is dropped).

    Header names come back lower-cased; the method upper-cased. The body is
    read to exactly ``Content-Length`` bytes.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
        return None
    if len(head) > MAX_HEADER_BYTES:
        return None
    lines = head.decode("latin-1").split("\r\n")
    request_line = lines[0].split(" ")
    if len(request_line) != 3:
        return None
    method, target, _version = request_line
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        return None
    if length < 0 or length > MAX_BODY_BYTES:
        return None
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        return None
    return method.upper(), target, headers, body


async def close_connection(writer: asyncio.StreamWriter) -> None:
    """Close the connection, tolerating a peer that already hung up."""
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):  # pragma: no cover - peer reset
        pass


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload,
    headers: dict[str, str] | None = None,
    head_only: bool = False,
) -> None:
    """Write one framed response and flush.

    ``head_only`` sends the status line and headers — including the
    ``Content-Length`` the full response would have carried — without the
    body, which is the HEAD contract. A 304 is always sent bodiless.
    """
    body, content_type = encode_payload(payload)
    if status == 304:
        head_only = True
        content_type = JSON_CONTENT_TYPE
    extra = "".join(
        f"{name}: {value}\r\n" for name, value in (headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {0 if status == 304 else len(body)}\r\n"
        f"{extra}"
        f"Connection: close\r\n"
        f"\r\n"
    ).encode("latin-1")
    writer.write(head if head_only else head + body)
    await writer.drain()


class HttpServer:
    """The one HTTP server: an asyncio loop on a daemon thread.

    It binds and listens when it is built — an ``OSError`` when the port
    is taken, an ``OverflowError`` when it is out of range — and takes
    its request handler in :meth:`start`, so a caller can claim the port
    before slow set-up work and hand over the handler afterwards.
    Connections that arrive in between wait in the listen backlog.

    ``handler(method, target, headers, body, client_id)`` returns
    ``(status, payload, headers)`` for :func:`write_response`; it runs on
    the loop thread, one request at a time. The client id is the
    ``X-Client-Id`` header, else the peer address. Use as a context
    manager, which stops the server on the way out::

        with HttpServer(port=0) as server:
            server.start(handler)
            url = f"http://127.0.0.1:{server.port}/healthz"
    """

    #: Seconds :meth:`start` and :meth:`stop` wait for the loop thread.
    TIMEOUT = 10

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        # Refused before a socket exists: ``bind`` would raise
        # OverflowError, which ``socket.create_server`` does not clean up
        # after (it closes its socket on OSError only).
        if not 0 <= port <= 65535:
            raise OverflowError(f"port must be 0-65535, got {port}")
        # An empty host means every interface, as in asyncio. The address
        # bound is (host, port) itself: a resolved one would carry a port
        # past 65535 wrapped to 16 bits instead of refusing it.
        family = socket.getaddrinfo(
            host or None,
            port,
            type=socket.SOCK_STREAM,
            flags=socket.AI_PASSIVE,
        )[0][0]
        self._socket = socket.create_server(
            (host, port), family=family, backlog=LISTEN_BACKLOG
        )
        #: The bound port (resolved when the request was port 0).
        self.port: int = self._socket.getsockname()[1]
        self._handler: Handler | None = None
        self._on_close: Callable[[], None] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None

    def start(
        self,
        handler: Handler,
        on_open: Callable[[], None] | None = None,
        on_close: Callable[[], None] | None = None,
    ) -> None:
        """Serve ``handler`` on the loop thread; return once it serves.

        ``on_open`` runs on the loop thread before the first request and
        ``on_close`` there after the last, so thread-bound resources (a
        SQLite connection) live on the thread that uses them. If
        ``on_open`` raises, the server is stopped and the error re-raised.
        """
        self._handler = handler
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name=f"http:{self.port}",
            daemon=True,
        )
        self._thread.start()
        try:
            self._run(self._serve(on_open, on_close))
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Stop serving, run ``on_close`` and close the socket."""
        if self._loop is not None and self._thread is not None:
            try:
                self._run(self._shutdown())
            finally:
                self._loop.call_soon_threadsafe(self._loop.stop)
                self._thread.join(timeout=self.TIMEOUT)
                self._loop.close()
                self._loop = None
                self._thread = None
        self._socket.close()

    def __enter__(self) -> HttpServer:
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self, coroutine) -> None:
        assert self._loop is not None
        asyncio.run_coroutine_threadsafe(coroutine, self._loop).result(
            timeout=self.TIMEOUT
        )

    async def _serve(self, on_open, on_close) -> None:
        if on_open is not None:
            on_open()
        self._on_close = on_close
        self._server = await asyncio.start_server(
            self._handle_connection, sock=self._socket, backlog=LISTEN_BACKLOG
        )

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._on_close is not None:
            on_close, self._on_close = self._on_close, None
            on_close()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        head_only = False
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return  # a framing error: drop the connection
                method, target, headers, body = request
                head_only = method == "HEAD"
                peer = writer.get_extra_info("peername") or ("unknown",)
                client_id = headers.get("x-client-id", str(peer[0]))
                status, payload, extra = self._handler(
                    method, target, headers, body, client_id
                )
            except Exception as exc:  # noqa: BLE001 - server must not crash
                status, payload, extra = (
                    500,
                    {"error": f"internal error: {exc}"},
                    {},
                )
            await write_response(
                writer, status, payload, extra, head_only=head_only
            )
        finally:
            await close_connection(writer)
