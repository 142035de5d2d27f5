"""The explorer service over HTTP/1.1.

It simulates the *data source* the paper scraped — the Jito
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
``Content-Length``) the GET would have carried and no body; the server,
request parsing, the path a target routes by (empty segments drop out,
so ``//healthz`` is ``/healthz``) and response framing are shared with
the archive API via :mod:`repro.serve.httpcommon`.

Typed service errors map onto HTTP statuses (400 / 429 / 503), which the
collector's HTTP client maps back into the same typed errors — so the
collection pipeline behaves identically over the wire and in-process.

:func:`explorer_handler` is the request handler that serves a service on
:class:`repro.serve.httpcommon.HttpServer`, so synchronous tests, examples
and ``repro serve`` exercise the full network path::

    with HttpServer() as server:
        server.start(explorer_handler(service))
        client = HttpExplorerClient("127.0.0.1", server.port)
"""

from __future__ import annotations

from functools import partial
from urllib.parse import parse_qs

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
    Handler,
    PlainText as _PlainText,
    request_path,
)
from repro.utils.serialization import decode_json


def _status_for_error(error: ExplorerError) -> int:
    if isinstance(error, BadRequestError):
        return 400
    if isinstance(error, RateLimitedError):
        return 429
    if isinstance(error, ServiceUnavailableError):
        return 503
    return 500


def explorer_handler(service: ExplorerService) -> Handler:
    """The request handler that serves ``service`` on an ``HttpServer``."""
    return partial(_dispatch, service)


def _dispatch(
    service: ExplorerService,
    method: str,
    target: str,
    headers: dict[str, str],
    body: bytes,
    client_id: str,
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
        status, payload = _route(
            service,
            "GET" if method == "HEAD" else method,
            target,
            body,
            client_id,
        )
    except ValueError as exc:
        return 400, {"error": str(exc)}, {}
    except ExplorerError as exc:
        payload = {"error": str(exc)}
        extra: dict[str, str] = {}
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            payload["retryAfter"] = retry_after
            extra["Retry-After"] = str(int(max(0.0, retry_after)) + 1)
        return _status_for_error(exc), payload, extra
    return status, payload, {}


def _route(
    service: ExplorerService,
    method: str,
    target: str,
    body: bytes,
    client_id: str,
) -> tuple[int, "dict | list | _PlainText"]:
    path, query = request_path(target)
    if path == "/healthz":
        return 200, {"status": "ok"}
    if path == "/metrics":
        if method != "GET":
            return 405, {"error": "use GET"}
        text = render_prometheus(service.metrics.snapshot())
        return 200, _PlainText(text)
    if path == "/api/v1/bundles/recent":
        if method != "GET":
            return 405, {"error": "use GET"}
        limit_values = parse_qs(query).get("limit")
        limit = int(limit_values[0]) if limit_values else None
        records = service.recent_bundles(limit=limit, client_id=client_id)
        return 200, {"bundles": [bundle_record_to_json(r) for r in records]}
    if path.startswith("/api/v1/bundles/") and path.count("/") == 4:
        if method != "GET":
            return 405, {"error": "use GET"}
        bundle_id = path.rsplit("/", 1)[-1]
        record = service.bundle(bundle_id, client_id=client_id)
        if record is None:
            return 404, {"error": f"no bundle {bundle_id[:16]}"}
        return 200, {"bundle": bundle_record_to_json(record)}
    if path == "/api/v1/transactions":
        if method != "POST":
            return 405, {"error": "use POST"}
        try:
            payload = decode_json(body.decode("utf-8") or "{}")
            ids = [str(i) for i in payload["ids"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise BadRequestError(f"malformed body: {exc}") from exc
        records = service.transactions(ids, client_id=client_id)
        return 200, {
            "transactions": [transaction_record_to_json(r) for r in records]
        }
    return 404, {"error": f"no route {path}"}
