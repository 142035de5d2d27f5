"""HTTP/1.1 serving shared by the explorer and the archive API.

Both servers in this repository speak the same minimal dialect: one
request per connection, explicit ``Content-Length``, ``Connection:
close``. Request parsing, response rendering and the server itself live
here once, so the two cannot drift — in particular, both answer ``HEAD``
with the exact headers (including ``Content-Length``) their ``GET`` would
have sent, minus the body, which is what polite cache-validating clients
rely on. :class:`HttpServer` runs either dispatch core: the explorer's
routing (``repro serve``) or :class:`repro.serve.app.ArchiveApiApp`
(``repro api``).
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from concurrent.futures import Future
from typing import Callable
from urllib.parse import urlsplit

from repro.utils.serialization import encode_json

#: Request head larger than this is dropped without a response.
MAX_HEADER_BYTES = 64 * 1024
#: Bodies larger than this are dropped without a response.
MAX_BODY_BYTES = 16 * 1024 * 1024
#: Listen backlog; sized for the bench harness's connection bursts (1,000+
#: clients connecting at once would otherwise drop SYNs before the loop
#: ever saw them).
LISTEN_BACKLOG = 2_048
#: Bytes asked of a connection per ``recv``.
RECV_BYTES = 64 * 1024

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


def parse_head(head: bytes) -> tuple[str, str, dict[str, str], int] | None:
    """Parse one request head; None on a framing error (dropped unanswered).

    ``head`` runs through the blank line that ends it and may be at most
    :data:`MAX_HEADER_BYTES` long. The result is ``(method, target,
    headers, content_length)``: the method upper-cased, header names
    lower-cased, and the length from ``Content-Length`` (0 when absent),
    at most :data:`MAX_BODY_BYTES`. Never raises.
    """
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
    return method.upper(), target, headers, length


def request_path(target: str) -> tuple[str, str]:
    """The path a request target routes by, and its query string.

    An origin-form target (one that starts with ``/``) is all path up to
    its ``?`` or ``#``, and its query runs from the ``?`` to the ``#``;
    ``urlsplit`` would read a leading ``//`` as a network location. Any
    other target (absolute-form) splits as a URL. Empty segments drop
    out of the path, so ``//v1//status/`` routes as ``/v1/status``.
    """
    if target.startswith("/"):
        path, _, query = target.split("#", 1)[0].partition("?")
    else:
        parts = urlsplit(target)
        path, query = parts.path, parts.query
    return "/" + "/".join(filter(None, path.split("/"))), query


def render_response(
    status: int,
    payload,
    headers: dict[str, str] | None = None,
    head_only: bool = False,
) -> bytes:
    """The bytes of one framed response.

    ``head_only`` renders the status line and headers — including the
    ``Content-Length`` the full response would have carried — without the
    body, which is the HEAD contract. A 304 is always bodiless.
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
    return head if head_only else head + body


class _Connection:
    """One client connection's state between readiness events."""

    __slots__ = ("sock", "peer", "received", "scanned", "head", "outgoing",
                 "events")

    def __init__(self, sock: socket.socket, peer) -> None:
        self.sock = sock
        self.peer = peer
        self.received = bytearray()
        #: Bytes of ``received`` already searched for the head's end.
        self.scanned = 0
        #: The parsed head once it has arrived, then its body is awaited.
        self.head: tuple[str, str, dict[str, str], int] | None = None
        #: The rest of the response still to send.
        self.outgoing: memoryview | None = None
        #: The events this connection is registered for (0: none).
        self.events = 0


class HttpServer:
    """The one HTTP server: one selector loop on a daemon thread.

    It binds and listens when it is built — an ``OSError`` when the port
    is taken, an ``OverflowError`` when it is out of range — and takes
    its request handler in :meth:`start`, so a caller can claim the port
    before slow set-up work and hand over the handler afterwards.
    Connections that arrive in between wait in the listen backlog.

    ``handler(method, target, headers, body, client_id)`` returns
    ``(status, payload, headers)`` for :func:`render_response`; it runs on
    the server thread, one request at a time. The client id is the
    ``X-Client-Id`` header, else the peer address. Every socket is
    non-blocking and the loop waits on none of them, so a peer that
    stalls mid-request or reads slowly holds up no other. Use as a
    context manager, which stops the server on the way out::

        with HttpServer(port=0) as server:
            server.start(handler)
            url = f"http://127.0.0.1:{server.port}/healthz"
    """

    #: Seconds :meth:`start` and :meth:`stop` wait for the server thread.
    TIMEOUT = 10
    #: Seconds accepting pauses after ``accept`` fails for want of a
    #: resource (file descriptors, buffers): retrying at once would spin
    #: while the listen socket stays readable.
    ACCEPT_RETRY_SECONDS = 1.0

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        # Refused before a socket exists: ``bind`` would raise
        # OverflowError, which ``socket.create_server`` does not clean up
        # after (it closes its socket on OSError only).
        if not 0 <= port <= 65535:
            raise OverflowError(f"port must be 0-65535, got {port}")
        # An empty host means every interface. The address bound is
        # (host, port) itself: a resolved one would carry a port past
        # 65535 wrapped to 16 bits instead of refusing it.
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
        self._thread: threading.Thread | None = None
        self._selector: selectors.BaseSelector | None = None
        #: ``(wake, woken)``: a byte sent on ``wake`` ends the loop.
        self._waker: tuple[socket.socket, socket.socket] | None = None
        #: When accepting resumes after a failed ``accept``; None if on.
        self._accept_resumes: float | None = None
        #: What ``on_close`` raised, for :meth:`stop` to raise.
        self._close_error: BaseException | None = None

    def start(
        self,
        handler: Handler,
        on_open: Callable[[], None] | None = None,
        on_close: Callable[[], None] | None = None,
    ) -> None:
        """Serve ``handler`` on the server thread; return once it serves.

        ``on_open`` runs on the server thread before the first request and
        ``on_close`` there after the last, so thread-bound resources (a
        SQLite connection) live on the thread that uses them. If
        ``on_open`` raises, the server is stopped and the error re-raised.
        """
        self._handler = handler
        self._socket.setblocking(False)
        self._waker = socket.socketpair()
        ready: Future = Future()
        self._thread = threading.Thread(
            target=self._serve,
            args=(on_open, on_close, ready),
            name=f"http:{self.port}",
            daemon=True,
        )
        self._thread.start()
        try:
            ready.result(timeout=self.TIMEOUT)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Stop serving, close every open connection, run ``on_close``
        and close the socket; raise what ``on_close`` raised."""
        if self._thread is not None:
            wake, woken = self._waker
            try:
                wake.send(b"\0")
                self._thread.join(timeout=self.TIMEOUT)
            finally:
                wake.close()
                woken.close()
                self._thread = None
                self._waker = None
        self._socket.close()
        if self._close_error is not None:
            error, self._close_error = self._close_error, None
            raise error

    def __enter__(self) -> HttpServer:
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # --- the server thread -------------------------------------------------

    def _serve(self, on_open, on_close, ready: Future) -> None:
        try:
            if on_open is not None:
                on_open()
        except BaseException as exc:  # re-raised by start()
            ready.set_exception(exc)
            return
        self._selector = selectors.DefaultSelector()
        try:
            self._selector.register(self._socket, selectors.EVENT_READ)
            self._selector.register(self._waker[1], selectors.EVENT_READ)
            ready.set_result(None)
            self._loop()
        finally:
            for key in list(self._selector.get_map().values()):
                if key.data is not None:
                    key.fileobj.close()
            self._selector.close()
            if on_close is not None:
                try:
                    on_close()
                except BaseException as exc:  # re-raised by stop()
                    self._close_error = exc

    def _loop(self) -> None:
        selector = self._selector
        while True:
            timeout = None
            if self._accept_resumes is not None:
                timeout = max(0.0, self._accept_resumes - time.monotonic())
            for key, events in selector.select(timeout):
                connection = key.data
                if connection is not None:
                    if events & selectors.EVENT_WRITE:
                        self._send(connection)
                    else:
                        self._receive(connection)
                elif key.fileobj is self._socket:
                    self._accept()
                else:
                    return  # woken by stop()
            if (
                self._accept_resumes is not None
                and time.monotonic() >= self._accept_resumes
            ):
                selector.register(self._socket, selectors.EVENT_READ)
                self._accept_resumes = None

    def _accept(self) -> None:
        # At most one backlog's worth per wake, so a burst of connections
        # cannot starve the peers already waiting.
        for _ in range(LISTEN_BACKLOG):
            try:
                sock, peer = self._socket.accept()
            except BlockingIOError:
                return
            except ConnectionAbortedError:
                continue
            except OSError:
                self._selector.unregister(self._socket)
                self._accept_resumes = (
                    time.monotonic() + self.ACCEPT_RETRY_SECONDS
                )
                return
            sock.setblocking(False)
            # The request may have arrived already: try it before paying
            # for a registration.
            self._receive(_Connection(sock, peer))

    def _receive(self, connection: _Connection) -> None:
        """Read what has arrived; answer once the request is whole."""
        try:
            chunk = connection.sock.recv(RECV_BYTES)
        except BlockingIOError:
            self._watch(connection, selectors.EVENT_READ)
            return
        except OSError:
            self._close(connection)
            return
        if not chunk:  # the peer hung up before a whole request
            self._close(connection)
            return
        received = connection.received
        received += chunk
        if connection.head is None:
            end = received.find(b"\r\n\r\n", max(0, connection.scanned - 3))
            if end < 0:
                if len(received) >= MAX_HEADER_BYTES:
                    self._close(connection)  # no head can end in time
                else:
                    connection.scanned = len(received)
                    self._watch(connection, selectors.EVENT_READ)
                return
            connection.head = parse_head(bytes(received[:end + 4]))
            if connection.head is None:
                self._close(connection)  # a framing error: no response
                return
            del received[:end + 4]
        if len(received) < connection.head[3]:
            self._watch(connection, selectors.EVENT_READ)
            return
        self._respond(connection, bytes(received[:connection.head[3]]))

    def _respond(self, connection: _Connection, body: bytes) -> None:
        method, target, headers, _length = connection.head
        head_only = method == "HEAD"
        try:
            client_id = headers.get("x-client-id", str(connection.peer[0]))
            status, payload, extra = self._handler(
                method, target, headers, body, client_id
            )
            response = render_response(status, payload, extra, head_only)
        except Exception as exc:  # noqa: BLE001 - server must not crash
            response = render_response(
                500, {"error": f"internal error: {exc}"}, {}, head_only
            )
        connection.outgoing = memoryview(response)
        self._send(connection)

    def _send(self, connection: _Connection) -> None:
        """Send what the socket takes; close once the response is out."""
        try:
            sent = connection.sock.send(connection.outgoing)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._close(connection)
            return
        connection.outgoing = connection.outgoing[sent:]
        if connection.outgoing:
            self._watch(connection, selectors.EVENT_WRITE)
        else:
            self._close(connection)

    def _watch(self, connection: _Connection, events: int) -> None:
        if connection.events == events:
            return
        if connection.events:
            self._selector.modify(connection.sock, events, connection)
        else:
            self._selector.register(connection.sock, events, connection)
        connection.events = events

    def _close(self, connection: _Connection) -> None:
        if connection.events:
            self._selector.unregister(connection.sock)
        connection.sock.close()
