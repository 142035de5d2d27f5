"""HTTP/1.1 plumbing shared by the explorer and archive-API servers.

Both asyncio servers in this repository speak the same minimal dialect:
one request per connection, explicit ``Content-Length``, ``Connection:
close``. Request parsing and response writing live here so the two servers
cannot drift — in particular, both answer ``HEAD`` with the exact headers
(including ``Content-Length``) their ``GET`` would have sent, minus the
body, which is what polite cache-validating clients rely on. Both also run
on one :class:`ThreadedServer`, so they start, fail to bind and stop the
same way.
"""

from __future__ import annotations

import asyncio
import json
import threading

#: Request head larger than this is dropped without a response.
MAX_HEADER_BYTES = 64 * 1024
#: Bodies larger than this are dropped without a response.
MAX_BODY_BYTES = 16 * 1024 * 1024

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
    return json.dumps(payload).encode("utf-8"), JSON_CONTENT_TYPE


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


class ThreadedServer:
    """Runs an asyncio server on its own event loop in a daemon thread.

    ``inner`` has a ``port`` and coroutine methods ``start()`` (bind and
    serve) and ``stop()``. Synchronous code (tests, examples, the CLI)
    runs it without managing a loop: :meth:`start` returns once the
    server listens, or raises what ``inner.start()`` raised — an
    ``OSError`` when the port is taken. Use as a context manager.
    """

    #: Seconds :meth:`start` and :meth:`stop` wait for the loop thread.
    TIMEOUT = 10

    def __init__(self, inner, name: str) -> None:
        self._inner = inner
        self._name = name
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._start_error: BaseException | None = None

    @property
    def port(self) -> int:
        """The bound port once the server has started."""
        return self._inner.port

    def _run(self) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._inner.start())
        except BaseException as exc:  # noqa: BLE001 - reraised in start()
            self._start_error = exc
            self._started.set()
            return
        self._started.set()
        self._loop.run_forever()

    def start(self) -> None:
        """Start the loop thread and wait for the socket to bind."""
        self._started.clear()
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name=self._name, daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=self.TIMEOUT):
            raise RuntimeError(f"{self._name} server failed to start")
        if self._start_error is not None:
            error, self._start_error = self._start_error, None
            self._thread.join(timeout=self.TIMEOUT)
            self._loop.close()
            self._loop = None
            self._thread = None
            raise error

    def stop(self) -> None:
        """Stop the server and join the thread."""
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive() and self._loop.is_running():
            future = asyncio.run_coroutine_threadsafe(
                self._inner.stop(), self._loop
            )
            future.result(timeout=self.TIMEOUT)
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=self.TIMEOUT)
        self._loop.close()
        self._loop = None
        self._thread = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
