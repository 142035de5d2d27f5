"""The asyncio HTTP front end for the archive API.

A thin framing shell around :class:`repro.serve.app.ArchiveApiApp`:
request parsing and response writing come from
:mod:`repro.serve.httpcommon` (shared with the explorer server, so HEAD
and framing behavior cannot drift between the two), and every decision —
routing, caching, limiting — lives in the app.

The listen backlog is raised well above the asyncio default: the load
harness opens 1000+ connections in one burst, and a short backlog would
drop SYNs before the loop ever saw them.
"""

from __future__ import annotations

import asyncio
import threading

from repro.serve.app import ApiConfig, ArchiveApiApp
from repro.serve.httpcommon import (
    close_connection,
    read_request,
    write_response,
)

#: Listen backlog; sized for the bench harness's connection bursts.
LISTEN_BACKLOG = 2_048


class ApiHttpServer:
    """Async HTTP server bound to an :class:`ArchiveApiApp`."""

    def __init__(self, app: ArchiveApiApp) -> None:
        self._app = app
        self._host = app.config.host
        self._port = app.config.port
        self._server: asyncio.AbstractServer | None = None

    @property
    def app(self) -> ArchiveApiApp:
        """The dispatch core this server fronts."""
        return self._app

    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when requested as 0)."""
        return self._port

    async def start(self) -> None:
        """Open the archive on this loop's thread, then bind and serve."""
        self._app.open()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._port,
            backlog=LISTEN_BACKLOG,
        )
        sockets = self._server.sockets or []
        if sockets:
            self._port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop serving and release the archive connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._app.close()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        head_only = False
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return  # a framing error: drop the connection
                method, target, headers, _body = request
                head_only = method == "HEAD"
                peer = writer.get_extra_info("peername") or ("unknown",)
                client_id = headers.get("x-client-id", str(peer[0]))
                status, payload, extra = self._app.handle(
                    method, target, headers, client_id
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


class ThreadedApiServer:
    """Runs an :class:`ApiHttpServer` on a daemon thread.

    The archive is opened *inside* the loop thread (SQLite connections are
    thread-bound), so construction is cheap and any open error surfaces
    from :meth:`start`. Use as a context manager::

        with ThreadedApiServer(ArchiveApiApp(config)) as server:
            url = f"http://127.0.0.1:{server.port}/v1/status"
    """

    def __init__(self, app: ArchiveApiApp) -> None:
        self._inner = ApiHttpServer(app)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._start_error: BaseException | None = None

    @property
    def app(self) -> ArchiveApiApp:
        """The dispatch core this server fronts."""
        return self._inner.app

    @property
    def port(self) -> int:
        """The bound port once the server has started."""
        return self._inner.port

    def start(self) -> None:
        """Start the event loop thread and wait for the socket to bind."""
        self._loop = asyncio.new_event_loop()

        def run() -> None:
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

        self._thread = threading.Thread(
            target=run, name="archive-api-http", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise RuntimeError("archive API server failed to start")
        if self._start_error is not None:
            error = self._start_error
            self._start_error = None
            raise error

    def stop(self) -> None:
        """Stop the server and join the thread."""
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive() and self._loop.is_running():
            future = asyncio.run_coroutine_threadsafe(
                self._inner.stop(), self._loop
            )
            future.result(timeout=10)
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ThreadedApiServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
