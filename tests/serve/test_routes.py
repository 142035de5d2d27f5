"""The route table on ``ArchiveApiApp.handle``: matching, capture,
404/405 discrimination, and the route each request is counted under."""

import json
import sqlite3

import pytest

from repro.serve import ApiConfig, ArchiveApiApp
from repro.serve.httpcommon import RawBody

#: Every pattern ``/`` lists, sorted.
PATTERNS = [
    "/",
    "/healthz",
    "/metrics",
    "/v1/aggregates/attackers",
    "/v1/aggregates/daily",
    "/v1/aggregates/defensive",
    "/v1/aggregates/lengths",
    "/v1/aggregates/tips",
    "/v1/bundles",
    "/v1/bundles/{bundle_id}",
    "/v1/detections",
    "/v1/detections/{bundle_id}",
    "/v1/financials",
    "/v1/status",
]


@pytest.fixture(scope="module")
def app(corpus_archive):
    app = ArchiveApiApp(
        ApiConfig(
            db_path=corpus_archive,
            requests_per_second=10_000.0,
            burst_capacity=10_000.0,
        )
    )
    app.open()
    yield app
    app.close()


@pytest.fixture(scope="module")
def ids(corpus_archive) -> dict[str, str]:
    """A stored bundle's id and an attacked bundle's id."""
    db = sqlite3.connect(corpus_archive)
    try:
        (bundle,) = db.execute(
            "SELECT bundle_id FROM bundles WHERE seq = 1"
        ).fetchone()
        (detection,) = db.execute(
            "SELECT bundle_id FROM sandwiches WHERE seq = 1"
        ).fetchone()
    finally:
        db.close()
    return {"bundle": bundle, "detection": detection}


def routed(app, method: str, target: str) -> tuple[int, str, object]:
    """One request's status, the route it is counted under, and its
    body (decoded when it is JSON)."""
    requests = app.metrics.get("serve_requests_total")
    before = dict(requests.series())
    status, payload, _ = app.handle(method, target, {}, "routes-test")
    [labels] = [
        key for key, value in requests.series() if value != before.get(key)
    ]
    if isinstance(payload, RawBody):
        payload = json.loads(payload.content)
    return status, dict(labels)["route"], payload


class TestResolution:
    def test_exact_match(self, app):
        status, route, payload = routed(app, "GET", "/v1/bundles")
        assert (status, route) == (200, "bundles")
        assert payload["page"]["limit"] == 100

    def test_param_capture(self, app, ids):
        status, route, payload = routed(
            app, "GET", f"/v1/bundles/{ids['bundle']}"
        )
        assert (status, route) == (200, "bundle")
        assert payload["bundle"]["bundleId"] == ids["bundle"]

    def test_trailing_slash_is_equivalent(self, app):
        assert routed(app, "GET", "/v1/bundles/")[:2] == (200, "bundles")

    def test_head_routes_as_get(self, app, ids):
        target = f"/v1/detections/{ids['detection']}"
        head = routed(app, "HEAD", target)
        assert head[:2] == (200, "detection")
        assert head == routed(app, "GET", target)


class TestErrors:
    def test_unknown_path_is_404(self, app):
        assert routed(app, "GET", "/v1/nope") == (
            404, "unmatched", {"error": "no route /v1/nope"}
        )

    def test_wrong_method_is_405_naming_alternatives(self, app):
        # Every route answers GET, and HEAD as GET; nothing else.
        assert routed(app, "POST", "/v1/status") == (
            405, "unmatched", {"error": "use GET"}
        )

    def test_extra_segment_is_404(self, app, ids):
        target = f"/v1/bundles/{ids['bundle']}/extra"
        assert routed(app, "GET", target) == (
            404, "unmatched", {"error": f"no route {target}"}
        )


@pytest.mark.parametrize(
    ("method", "target", "status", "route"),
    [
        ("GET", "/", 200, "index"),
        ("GET", "/healthz", 200, "healthz"),
        ("GET", "/metrics", 200, "metrics"),
        ("GET", "/v1/status", 200, "status"),
        ("GET", "/v1/detections", 200, "detections"),
        ("GET", "/v1/financials", 200, "financials"),
        ("GET", "/v1/aggregates/daily", 200, "aggregates.daily"),
        ("GET", "/v1/aggregates/lengths", 200, "aggregates.lengths"),
        ("GET", "/v1/aggregates/tips", 200, "aggregates.tips"),
        ("GET", "/v1/aggregates/attackers", 200, "aggregates.attackers"),
        ("GET", "/v1/aggregates/defensive", 200, "aggregates.defensive"),
        # Empty segments drop out, so doubled slashes match too.
        ("GET", "/v1//status//", 200, "status"),
        ("GET", "/v1//bundles/{bundle}/", 200, "bundle"),
        ("HEAD", "/v1/detections//{detection}//", 200, "detection"),
        ("GET", "", 200, "index"),
        # An origin-form target is its path up to "?" or "#", so a
        # leading "//" is empty segments, not a network location.
        ("GET", "//healthz", 200, "healthz"),
        ("GET", "//metrics", 200, "metrics"),
        ("GET", "//v1/status", 200, "status"),
        ("GET", "//v1//status", 200, "status"),
        ("GET", "//x/v1/status", 404, "unmatched"),
        ("GET", "//v1/status?x=1", 400, "status"),
        # ... so it is never parsed as one: "[" opens no IPv6 host here.
        ("GET", "//[x", 404, "unmatched"),
        ("GET", "/v1/status#frag", 200, "status"),
        # An absolute-form target routes by its URL's path.
        ("GET", "http://h/v1/status", 200, "status"),
        # A captured id that names no row is the route's own 404.
        ("GET", "/v1/bundles/{{bundle_id}}", 404, "bundle"),
        ("GET", "/v1/detections/{bundle}", 404, "detection"),
        # The query rule: the operational routes ignore a query, the
        # query routes validate it, and the others refuse one.
        ("GET", "/healthz?probe=1", 200, "healthz"),
        ("GET", "/v1/bundles?limit=3", 200, "bundles"),
        ("GET", "/v1/bundles?nope=1", 400, "bundles"),
        ("GET", "/v1/status?x=1", 400, "status"),
        ("GET", "/v1/bundles/{bundle}?x=1", 400, "bundle"),
        # An unknown path is a 404 before any method is looked at.
        ("GET", "/v1/status/x", 404, "unmatched"),
        ("GET", "/v1", 404, "unmatched"),
        ("POST", "/v1/nope", 404, "unmatched"),
        ("PUT", "/v1/bundles/{bundle}", 405, "unmatched"),
        ("DELETE", "/healthz", 405, "unmatched"),
        ("get", "/v1/status", 405, "unmatched"),
    ],
)
def test_request(app, ids, method, target, status, route):
    assert routed(app, method, target.format(**ids))[:2] == (status, route)


def test_index_lists_every_pattern(app):
    status, route, payload = routed(app, "GET", "/")
    assert (status, route) == (200, "index")
    assert payload == {
        "service": "repro archive api",
        "version": "v1",
        "routes": PATTERNS,
    }


def test_reopened_app_answers(corpus_archive):
    app = ArchiveApiApp(ApiConfig(db_path=corpus_archive))
    app.open()
    app.close()
    app.open()
    try:
        assert routed(app, "GET", "/v1/status")[:2] == (200, "status")
    finally:
        app.close()


def test_refused_request_is_neither_a_cache_hit_nor_a_miss(corpus_archive):
    app = ArchiveApiApp(ApiConfig(db_path=corpus_archive))
    app.open()
    try:
        for target in (
            "/v1/status?x=1", "/v1/bundles?nope=1", "/v1/financials?x=1"
        ):
            assert app.handle("GET", target, {}, "refused")[0] == 400
        events = app.metrics.get("serve_cache_events_total")
        assert (app.cache.hits, app.cache.misses) == (0, 0)
        assert list(events.series()) == []
        # A missing id is still answered, so it counts its one miss.
        assert app.handle("GET", "/v1/bundles/nope", {}, "refused")[0] == 404
        assert (app.cache.hits, app.cache.misses) == (0, 1)
        assert list(events.series()) == [((("outcome", "miss"),), 1.0)]
    finally:
        app.close()


def test_parameters_split_differently_are_not_one_cache_entry(app):
    # One date_from holding "|limit=5", then two parameters: the second
    # asks for five rows and must not get the first's cached page.
    joined = routed(app, "GET", "/v1/bundles?date_from=2099-01-01|limit=5")
    split = routed(app, "GET", "/v1/bundles?date_from=2099-01-01&limit=5")
    assert joined[2]["page"]["limit"] == 100
    assert split[2]["page"]["limit"] == 5
