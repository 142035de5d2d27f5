"""The archive API's dispatch core, independent of any socket.

:class:`ArchiveApiApp` owns the whole request lifecycle — rate limiting,
routing, the watermark-keyed cache, ETag validation, error mapping, and
request metrics — as one synchronous ``handle()`` call, so every behavior
is testable without binding a port. :meth:`ArchiveApiApp.serve` puts it
on the shared :class:`repro.serve.httpcommon.HttpServer` (``repro api``).

Request flow, in order:

1. look the path up in :data:`ROUTES`, the one fixed route table (404
   unknown path, 405 any method but ``GET``; ``HEAD`` routes as ``GET``),
2. admit through the per-client token bucket unless the route is exempt
   (``/healthz``, ``/metrics`` must answer while saturated),
3. take the archive watermark and look up the response cache — a hit
   serves the stored canonical bytes, a miss runs the repository handler
   and caches the result. The watermark is reread only when SQLite's
   ``data_version`` shows a commit by another connection since the last
   read; this connection is read-only, so every change comes from
   another. A miss reads its token and runs the handler in one read
   transaction, so the body and the token it is cached under describe
   one state of the archive,
4. compare the strong ETag against ``If-None-Match`` (304 on match),
5. record per-route latency, status, and cache-outcome metrics.

The app is single-threaded by contract: the SQLite connection, the cache,
and the limiter are all touched only from the thread that called
:meth:`open` (the serving event loop's thread).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from urllib.parse import parse_qs

from repro.archive.database import ArchiveDatabase
from repro.archive.query import ArchiveQuery
from repro.conformance.canon import canonical_json_bytes
from repro.errors import ConfigError, StoreError
from repro.obs.export import render_prometheus
from repro.obs.registry import MetricsRegistry
from repro.serve.cache import CacheEntry, ResponseCache, make_etag
from repro.serve.httpcommon import (
    JSON_CONTENT_TYPE,
    HttpServer,
    PlainText,
    RawBody,
    request_path,
)
from repro.serve.repositories import (
    AggregateRepository,
    BundleRepository,
    DetectionRepository,
    StatusRepository,
)
from repro.utils.ratelimit import ClientRateLimiter

#: API version segment; bump on breaking payload changes.
API_VERSION = "v1"


@dataclass(frozen=True)
class ApiConfig:
    """Tunables for one API instance.

    ``host`` and ``port`` are where ``repro api`` binds its
    :class:`~repro.serve.httpcommon.HttpServer`.
    """

    db_path: str | Path
    host: str = "127.0.0.1"
    port: int = 0
    requests_per_second: float = 50.0
    burst_capacity: float = 200.0
    cache_entries: int = 1_024
    time_fn: Callable[[], float] | None = None


class ArchiveApiApp:
    """Routes archive-API requests to repositories; socket-free."""

    def __init__(
        self, config: ApiConfig, metrics: MetricsRegistry | None = None
    ) -> None:
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._requests_metric = self.metrics.counter(
            "serve_requests_total",
            "API requests served, by route and status code.",
        )
        self._latency_metric = self.metrics.histogram(
            "serve_request_seconds",
            "Wall-clock API request latency, by route.",
            buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
        )
        self._cache_metric = self.metrics.counter(
            "serve_cache_events_total",
            "Response-cache lookups, by outcome (hit/miss/bypass).",
        )
        self._reject_metric = self.metrics.counter(
            "serve_ratelimit_rejections_total",
            "API requests rejected by per-client rate limiting.",
        )
        self.cache = ResponseCache(capacity=config.cache_entries)
        self.limiter = ClientRateLimiter(
            rate=config.requests_per_second,
            burst=config.burst_capacity,
            time_fn=config.time_fn,
        )
        self._db: ArchiveDatabase | None = None
        self.query: ArchiveQuery | None = None
        # (data_version, watermark token) as last read; see _token().
        self._watermark: tuple[int, str] | None = None

    # --- lifecycle ---------------------------------------------------------

    def open(self) -> None:
        """Open the archive read-only and the repositories over it.

        Must be called on the thread that will serve requests: SQLite
        connections are thread-bound, and the read-only open also verifies
        the schema version before the first request can arrive. An app
        that :meth:`close` closed opens again.
        """
        self._db = ArchiveDatabase(self.config.db_path, read_only=True)
        self.query = ArchiveQuery(self._db, metrics=self.metrics)
        self._watermark = None
        self._bundles = BundleRepository(self.query)
        self._detections = DetectionRepository(self.query)
        self._aggregates = AggregateRepository(self.query)
        self._status = StatusRepository(self.query)

    def close(self) -> None:
        """Close the archive connection (same thread as :meth:`open`)."""
        if self._db is not None:
            self._db.close()
            self._db = None
            self.query = None
            self._watermark = None

    def serve(self, server: HttpServer) -> None:
        """Start ``server`` on this app; return once it serves.

        The archive opens on the server's thread (SQLite connections are
        thread-bound) before the first request and closes there when the
        server stops. A failed open raises here and leaves the server
        stopped.
        """
        server.start(
            lambda method, target, headers, _body, client_id: self.handle(
                method, target, headers, client_id
            ),
            on_open=self.open,
            on_close=self.close,
        )

    # --- dispatch ----------------------------------------------------------

    @staticmethod
    def _query_params(raw_query: str) -> dict[str, str]:
        """Flatten the query string; repeated keys are a client error."""
        params: dict[str, str] = {}
        for key, values in parse_qs(
            raw_query, keep_blank_values=True
        ).items():
            if len(values) > 1:
                raise ValueError(f"duplicate query parameter: {key}")
            params[key] = values[0]
        return params

    def handle(
        self,
        method: str,
        target: str,
        headers: dict[str, str],
        client_id: str,
    ) -> tuple[int, object, dict[str, str]]:
        """One request in, one ``(status, payload, headers)`` out.

        ``headers`` must carry lower-cased names (the shared request parser
        guarantees this). The payload is ready for
        :func:`repro.serve.httpcommon.render_response`.
        """
        if self.query is None:
            raise ConfigError("ArchiveApiApp.handle() before open()")
        started = time.perf_counter()
        route_name = "unmatched"
        status = 500
        try:
            path, raw_query = request_path(target)
            segments = tuple(filter(None, path.split("/")))
            route, captured = _FIXED.get(segments), ()
            if route is None and segments:
                route, captured = _CAPTURING.get(segments[:-1]), segments[-1:]
            if route is None:
                status = 404
                return 404, {"error": f"no route {path}"}, {}
            if method not in ("GET", "HEAD"):
                # A HEAD runs as its GET; the server drops the body.
                status = 405
                return 405, {"error": "use GET"}, {}
            route_name, _, cached, exempt, _ = route
            if not exempt:
                admission = self.limiter.admit(client_id)
                if not admission.allowed:
                    self._reject_metric.inc()
                    retry = max(0.0, admission.retry_after or 0.0)
                    status = 429
                    return (
                        429,
                        {
                            "error": "rate limit exceeded",
                            "retryAfter": retry,
                        },
                        {"Retry-After": str(int(retry) + 1)},
                    )
            try:
                query_params = self._query_params(raw_query)
                if cached:
                    status, payload, extra = self._cached(
                        route, captured, query_params, headers
                    )
                else:
                    self._cache_metric.inc(outcome="bypass")
                    result = self._call(route, captured, query_params)
                    status, payload, extra = 200, result, {}
            except (ValueError, ConfigError) as exc:
                # Request validation. A stored value the archive cannot
                # serve raises StoreError instead, which the server
                # answers with its 500.
                status = 400
                return 400, {"error": str(exc)}, {}
            return status, payload, extra
        finally:
            self._requests_metric.inc(
                route=route_name, status=str(status)
            )
            self._latency_metric.observe(
                time.perf_counter() - started, route=route_name
            )

    def _call(
        self, route: tuple, captured: tuple, query_params: dict[str, str]
    ) -> object:
        """``route``'s handler on the captured id and, if the route takes
        them, the query parameters: the table's one query rule."""
        _, handler, _, _, takes_query = route
        if takes_query:
            return handler(self, *captured, query_params)
        if query_params:
            raise ValueError("this endpoint takes no query parameters")
        return handler(self, *captured)

    def _token(self) -> str:
        """The archive's watermark token, reread only after a commit.

        ``data_version`` is read first, so a commit landing between the
        two reads costs one extra reread on the next request, never a
        stale token.
        """
        assert self.query is not None
        version = self.query.data_version()
        if self._watermark is None or self._watermark[0] != version:
            self._watermark = (version, self.query.watermark().token)
        return self._watermark[1]

    def _cached(
        self,
        route: tuple,
        captured: tuple,
        query_params: dict[str, str],
        headers: dict[str, str],
    ) -> tuple[int, object, dict[str, str]]:
        """Serve a cached route: watermark, cache, ETag, 304.

        A handler's :class:`RawBody` is already its canonical body and is
        cached as it is; any other result is rendered canonically here. A
        stored value JSON cannot carry raises :class:`StoreError`, which
        the server answers with a 500: the request was fine, the archive
        is not. A miss is counted once the handler has run, unless it
        refused the request: a 400 is neither a hit nor a miss.

        A miss reads its token and runs its handler in one snapshot, so a
        commit landing mid-request moves neither the body nor the token
        it is cached under. A key the cache does not hold misses under
        any token, so it goes there at once; one the cache holds takes
        the token first, to find out whether it still hits.
        """
        key = (route[0], captured, tuple(sorted(query_params.items())))
        entry = None
        if key in self.cache:
            token = self._token()
            entry = self.cache.get(token, key)
        if entry is None:
            refused = False
            try:
                with self._db.snapshot():
                    token = self._token()
                    result = self._call(route, captured, query_params)
            except (ValueError, ConfigError):
                refused = True
                raise
            finally:
                if not refused:
                    self.cache.count_miss()
                    self._cache_metric.inc(outcome="miss")
            if result is None:
                # Absence is watermark-dependent too, but a 404 is cheap
                # to recompute and caching it would complicate the
                # hit-implies-200 invariant; don't cache.
                return 404, {"error": "not found"}, {}
            if isinstance(result, RawBody):
                body, content_type = result.content, result.content_type
            else:
                try:
                    body = canonical_json_bytes(result)
                except ValueError as exc:
                    raise StoreError(
                        f"stored value cannot be served as JSON: {exc}"
                    ) from exc
                content_type = JSON_CONTENT_TYPE
            entry = CacheEntry(
                body=body,
                content_type=content_type,
                etag=make_etag(token, body),
            )
            self.cache.put(token, key, entry)
        else:
            self._cache_metric.inc(outcome="hit")
        extra = {
            "ETag": entry.etag,
            "X-Archive-Watermark": token,
        }
        if headers.get("if-none-match") == entry.etag:
            return 304, None, extra
        return 200, RawBody(entry.body, entry.content_type), extra


#: The whole API, built once: pattern -> (route name, handler, cached,
#: exempt from rate limiting, takes query parameters). Every route
#: answers ``GET``, and ``HEAD`` as ``GET``; its name labels the
#: ``serve_*`` metrics. A handler gets the app, then the ``{bundle_id}``
#: its pattern captures, then the query parameters if the route takes
#: them. The three uncached routes take a query and ignore it.
ROUTES: dict[str, tuple[str, Callable[..., object], bool, bool, bool]] = {
    "/": ("index", lambda app, query: INDEX, False, False, True),
    "/healthz": (
        "healthz", lambda app, query: {"status": "ok"}, False, True, True
    ),
    "/metrics": (
        "metrics",
        lambda app, query: PlainText(
            render_prometheus(app.metrics.snapshot())
        ),
        False, True, True,
    ),
    f"/{API_VERSION}/status": (
        "status", lambda app: app._status.status(), True, False, False
    ),
    f"/{API_VERSION}/bundles": (
        "bundles", lambda app, query: app._bundles.page(query),
        True, False, True,
    ),
    f"/{API_VERSION}/bundles/{{bundle_id}}": (
        "bundle", lambda app, bundle_id: app._bundles.detail(bundle_id),
        True, False, False,
    ),
    f"/{API_VERSION}/detections": (
        "detections", lambda app, query: app._detections.page(query),
        True, False, True,
    ),
    f"/{API_VERSION}/detections/{{bundle_id}}": (
        "detection",
        lambda app, bundle_id: app._detections.detail(bundle_id),
        True, False, False,
    ),
    f"/{API_VERSION}/financials": (
        "financials", lambda app: app._aggregates.financials(),
        True, False, False,
    ),
    f"/{API_VERSION}/aggregates/daily": (
        "aggregates.daily", lambda app: app._aggregates.daily(),
        True, False, False,
    ),
    f"/{API_VERSION}/aggregates/lengths": (
        "aggregates.lengths", lambda app: app._aggregates.lengths(),
        True, False, False,
    ),
    f"/{API_VERSION}/aggregates/tips": (
        "aggregates.tips", lambda app, query: app._aggregates.tips(query),
        True, False, True,
    ),
    f"/{API_VERSION}/aggregates/attackers": (
        "aggregates.attackers",
        lambda app, query: app._aggregates.attackers(query),
        True, False, True,
    ),
    f"/{API_VERSION}/aggregates/defensive": (
        "aggregates.defensive", lambda app: app._aggregates.defensive(),
        True, False, False,
    ),
}

#: The ``/`` body: the API's name, version and sorted route patterns.
INDEX = {
    "service": "repro archive api",
    "version": API_VERSION,
    "routes": sorted(ROUTES),
}

#: :data:`ROUTES` by path segments, empty segments dropped (so trailing
#: and doubled slashes match); a ``{bundle_id}`` route by the segments
#: before its capture.
_FIXED = {
    tuple(filter(None, pattern.split("/"))): route
    for pattern, route in ROUTES.items()
    if not pattern.endswith("}")
}
_CAPTURING = {
    tuple(filter(None, pattern.split("/")))[:-1]: route
    for pattern, route in ROUTES.items()
    if pattern.endswith("}")
}
