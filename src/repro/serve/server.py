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

from repro.serve.app import ArchiveApiApp
from repro.serve.httpcommon import (
    ThreadedServer,
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
        """Open the archive on this loop's thread, then bind and serve.

        A failed bind closes the archive again before it raises.
        """
        self._app.open()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection,
                self._host,
                self._port,
                backlog=LISTEN_BACKLOG,
            )
        except BaseException:
            self._app.close()
            raise
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


class ThreadedApiServer(ThreadedServer):
    """Runs an :class:`ApiHttpServer` on a daemon thread.

    The archive is opened *inside* the loop thread (SQLite connections are
    thread-bound), so construction is cheap and any open error surfaces
    from :meth:`start`. Use as a context manager::

        with ThreadedApiServer(ArchiveApiApp(config)) as server:
            url = f"http://127.0.0.1:{server.port}/v1/status"
    """

    def __init__(self, app: ArchiveApiApp) -> None:
        super().__init__(ApiHttpServer(app), name="archive-api-http")

    @property
    def app(self) -> ArchiveApiApp:
        """The dispatch core this server fronts."""
        return self._inner.app
