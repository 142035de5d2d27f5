"""An asyncio HTTP/1.1 front end for the explorer service.

This server simulates the *data source* the paper scraped — the Jito
Explorer feed of landed bundles — not the measurement results (those are
served by ``repro api``, the :mod:`repro.serve` tier). It exposes the
endpoints the paper's collector polled, over a real socket, plus two
operational endpoints:

- ``GET /api/v1/bundles/recent?limit=N`` — recent bundle listing
- ``GET /api/v1/bundles/<bundle_id>`` — a single bundle by id
- ``POST /api/v1/transactions`` with body ``{"ids": [...]}`` — bulk details
- ``GET /healthz`` — liveness probe
- ``GET /metrics`` — the service's metrics registry in Prometheus text
  format (never rate-limited: operators must be able to see a struggling
  server)

``HEAD`` is answered on every GET route with the headers (including
``Content-Length``) the GET would have carried and no body; request
parsing and response framing are shared with the archive-API server via
:mod:`repro.serve.httpcommon`.

Typed service errors map onto HTTP statuses (400 / 429 / 503), which the
collector's HTTP client maps back into the same typed errors — so the
collection pipeline behaves identically over the wire and in-process.

:class:`ThreadedExplorerServer` runs the event loop on a daemon thread so
synchronous tests and examples can exercise the full network path.
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    BadRequestError,
    ExplorerError,
    RateLimitedError,
    ServiceUnavailableError,
)
from repro.explorer.service import ExplorerService
from repro.explorer.wire import bundle_record_to_json, transaction_record_to_json
from repro.obs.export import render_prometheus
from repro.serve.httpcommon import (
    PlainText as _PlainText,
    ThreadedServer,
    close_connection,
    read_request,
    write_response,
)


def _status_for_error(error: ExplorerError) -> int:
    if isinstance(error, BadRequestError):
        return 400
    if isinstance(error, RateLimitedError):
        return 429
    if isinstance(error, ServiceUnavailableError):
        return 503
    return 500


class ExplorerHttpServer:
    """Async HTTP server bound to an :class:`ExplorerService`."""

    def __init__(
        self, service: ExplorerService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self._server: asyncio.AbstractServer | None = None

    @property
    def port(self) -> int:
        """The bound port (resolved after :meth:`start` when requested as 0)."""
        return self._port

    async def start(self) -> None:
        """Bind and start serving."""
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        sockets = self._server.sockets or []
        if sockets:
            self._port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop serving and close the listening socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # --- request handling --------------------------------------------------------

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
                status, payload, headers = self._dispatch(
                    method, target, body, client_id
                )
            except Exception as exc:  # noqa: BLE001 - server must not crash
                status, payload, headers = (
                    500,
                    {"error": f"internal error: {exc}"},
                    {},
                )
            await write_response(
                writer, status, payload, headers, head_only=head_only
            )
        finally:
            await close_connection(writer)

    def _dispatch(
        self, method: str, target: str, body: bytes, client_id: str
    ) -> tuple[int, "dict | list | _PlainText", dict[str, str]]:
        """Route the request, mapping typed errors to statuses and headers.

        ``HEAD`` routes exactly like ``GET`` — the connection handler strips
        the body at write time, so the headers (Content-Length included)
        match what the GET would have sent.

        A rate-limit rejection carries the service's Retry-After hint both
        as a ``Retry-After`` header and a ``retryAfter`` body field, so
        polite clients on either parsing path can honor it.
        """
        try:
            status, payload = self._route(
                "GET" if method == "HEAD" else method, target, body, client_id
            )
        except ValueError as exc:
            return 400, {"error": str(exc)}, {}
        except ExplorerError as exc:
            payload = {"error": str(exc)}
            headers: dict[str, str] = {}
            retry_after = getattr(exc, "retry_after", None)
            if retry_after is not None:
                payload["retryAfter"] = retry_after
                headers["Retry-After"] = str(int(max(0.0, retry_after)) + 1)
            return _status_for_error(exc), payload, headers
        return status, payload, {}

    def _route(
        self, method: str, target: str, body: bytes, client_id: str
    ) -> tuple[int, "dict | list | _PlainText"]:
        parts = urlsplit(target)
        path = parts.path
        if path == "/healthz":
            return 200, {"status": "ok"}
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "use GET"}
            text = render_prometheus(self._service.metrics.snapshot())
            return 200, _PlainText(text)
        if path == "/api/v1/bundles/recent":
            if method != "GET":
                return 405, {"error": "use GET"}
            query = parse_qs(parts.query)
            limit_values = query.get("limit")
            limit = int(limit_values[0]) if limit_values else None
            records = self._service.recent_bundles(
                limit=limit, client_id=client_id
            )
            return 200, {
                "bundles": [bundle_record_to_json(r) for r in records]
            }
        if path.startswith("/api/v1/bundles/") and path != (
            "/api/v1/bundles/recent"
        ):
            if method != "GET":
                return 405, {"error": "use GET"}
            bundle_id = path.rsplit("/", 1)[-1]
            record = self._service.bundle(bundle_id, client_id=client_id)
            if record is None:
                return 404, {"error": f"no bundle {bundle_id[:16]}"}
            return 200, {"bundle": bundle_record_to_json(record)}
        if path == "/api/v1/transactions":
            if method != "POST":
                return 405, {"error": "use POST"}
            try:
                payload = json.loads(body.decode("utf-8") or "{}")
                ids = [str(i) for i in payload["ids"]]
            except (
                json.JSONDecodeError,
                KeyError,
                TypeError,
                UnicodeDecodeError,
            ) as exc:
                raise BadRequestError(f"malformed body: {exc}") from exc
            records = self._service.transactions(ids, client_id=client_id)
            return 200, {
                "transactions": [
                    transaction_record_to_json(r) for r in records
                ]
            }
        return 404, {"error": f"no route {path}"}


class ThreadedExplorerServer(ThreadedServer):
    """Runs an :class:`ExplorerHttpServer` on a daemon thread.

    Lets synchronous code (tests, examples, the blocking HTTP client) talk to
    the async server without managing an event loop. Use as a context
    manager::

        with ThreadedExplorerServer(service) as server:
            client = HttpExplorerClient("127.0.0.1", server.port)
    """

    def __init__(
        self, service: ExplorerService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        super().__init__(
            ExplorerHttpServer(service, host, port), name="explorer-http"
        )
