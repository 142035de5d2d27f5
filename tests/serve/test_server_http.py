"""End-to-end archive-API tests over real sockets.

Covers the serving tier's externally visible contracts: pagination
correctness against direct queries, conditional GETs (ETag/304), the
cache-invalidation acceptance criterion (an ``IncrementalAnalyzer`` pass
or a collector append mid-session makes fresh data visible immediately),
a 500 for a stored value JSON cannot carry, rate limiting, HEAD
semantics, and the metrics endpoint.
"""

import json
import os
import signal
import socket
import sqlite3
import threading
import time

import pytest

from repro.archive.database import ArchiveDatabase
from repro.archive.incremental import IncrementalAnalyzer
from repro.archive.query import ArchiveQuery
from repro.archive.store import ArchiveBundleStore
from repro.conformance.scenarios import (
    CORPUS_SCENARIOS,
    generate_rows,
    write_archive,
)
from repro.errors import ConfigError, StoreError
from repro.parallel import DetectorSpec, ParallelAnalysisEngine
from repro.serve import ApiConfig, ArchiveApiApp, HttpServer
from repro.serve.runner import bind_server, wait_for_interrupt
from tests.archive.conftest import make_bundle
from tests.serve.conftest import http_json, http_request


@pytest.fixture(scope="module")
def server(corpus_archive):
    """A read-only API over the analyzed corpus (permissive rate limit)."""
    app = ArchiveApiApp(
        ApiConfig(
            db_path=corpus_archive,
            requests_per_second=10_000.0,
            burst_capacity=10_000.0,
        )
    )
    with HttpServer() as srv:
        app.serve(srv)
        yield srv


class TestEndpoints:
    def test_status_matches_archive(self, server, corpus_archive):
        payload = http_json(server.port, "/v1/status")["status"]
        db = ArchiveDatabase(corpus_archive, read_only=True)
        try:
            query = ArchiveQuery(db)
            assert payload["bundles"] == query.count_bundles()
            assert payload["sandwiches"] == query.count_sandwiches()
            assert payload["watermark"] == query.watermark().token
        finally:
            db.close()

    def test_pagination_covers_collection_exactly_once(
        self, server, corpus_archive
    ):
        seen = []
        offset = 0
        while True:
            payload = http_json(
                server.port, f"/v1/bundles?limit=64&offset={offset}"
            )
            seen.extend(b["bundleId"] for b in payload["items"])
            offset += 64
            if payload["page"]["returned"] < 64:
                break
        db = ArchiveDatabase(corpus_archive, read_only=True)
        try:
            expected = [b.bundle_id for b in ArchiveQuery(db).bundles()]
        finally:
            db.close()
        assert seen == expected

    def test_detection_filter_roundtrip(self, server):
        detections = http_json(server.port, "/v1/detections")["items"]
        assert detections
        attacker = detections[0]["attacker"]
        mine = http_json(
            server.port, f"/v1/detections?attacker={attacker}"
        )
        assert mine["page"]["total"] >= 1
        assert all(d["attacker"] == attacker for d in mine["items"])
        detail = http_json(
            server.port, f"/v1/detections/{detections[0]['bundleId']}"
        )
        assert detail["detection"] == detections[0]

    def test_unknown_route_404(self, server):
        status, _, body = http_request(server.port, "/v1/nope")
        assert status == 404
        assert b"no route" in body

    def test_wrong_method_405(self, server):
        status, _, _ = http_request(server.port, "/v1/status", method="POST")
        assert status == 405

    def test_unknown_param_400(self, server):
        status, _, body = http_request(server.port, "/v1/bundles?bogus=1")
        assert status == 400
        assert b"unknown query parameter" in body

    def test_missing_detail_404(self, server):
        status, _, _ = http_request(server.port, "/v1/bundles/zzz")
        assert status == 404


class TestFraming:
    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param(b"\x00\x01\x02\r\n\r\n", id="garbage-request-line"),
            pytest.param(b"GET /v1/status\r\n\r\n", id="missing-version"),
            pytest.param(
                b"GET /v1/status HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
                id="negative-length",
            ),
            pytest.param(
                b"GET /v1/status HTTP/1.1\r\n"
                b"Content-Length: 999999999999\r\n\r\n",
                id="oversized-length",
            ),
            pytest.param(
                b"GET /v1/status HTTP/1.1\r\n"
                b"Content-Length: banana\r\n\r\n",
                id="non-numeric-length",
            ),
        ],
    )
    def test_malformed_request_connection_reaches_eof(self, server, payload):
        """A request the server will not answer is closed, promptly."""
        address = ("127.0.0.1", server.port)
        with socket.create_connection(address, timeout=1) as conn:
            conn.sendall(payload)
            assert conn.recv(1) == b""


class TestConditionalGet:
    def test_etag_stable_and_304_on_match(self, server):
        status1, headers1, body1 = http_request(server.port, "/v1/financials")
        status2, headers2, body2 = http_request(server.port, "/v1/financials")
        assert (status1, status2) == (200, 200)
        assert headers1["etag"] == headers2["etag"]
        assert body1 == body2
        status3, headers3, body3 = http_request(
            server.port,
            "/v1/financials",
            headers={"If-None-Match": headers1["etag"]},
        )
        assert status3 == 304
        assert body3 == b""
        assert headers3["etag"] == headers1["etag"]

    def test_stale_etag_gets_full_response(self, server):
        status, _, body = http_request(
            server.port,
            "/v1/financials",
            headers={"If-None-Match": '"stale"'},
        )
        assert status == 200
        assert body


class TestHead:
    def test_head_has_get_content_length_and_no_body(self, server):
        get_status, get_headers, get_body = http_request(
            server.port, "/v1/status"
        )
        head_status, head_headers, head_body = http_request(
            server.port, "/v1/status", method="HEAD"
        )
        assert (get_status, head_status) == (200, 200)
        assert head_body == b""
        assert head_headers["content-length"] == str(len(get_body))
        assert head_headers["etag"] == get_headers["etag"]


class TestMetricsEndpoint:
    def test_request_metrics_visible(self, server):
        http_json(server.port, "/v1/status")
        status, headers, body = http_request(server.port, "/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        text = body.decode()
        assert "serve_requests_total" in text
        assert "serve_request_seconds" in text
        assert "serve_cache_events_total" in text


class TestRateLimit:
    def test_429_with_retry_after(self, tmp_path, corpus_archive):
        app = ArchiveApiApp(
            ApiConfig(
                db_path=corpus_archive,
                requests_per_second=0.001,
                burst_capacity=1.0,
            )
        )
        with HttpServer() as srv:
            app.serve(srv)
            first = http_request(
                srv.port, "/v1/status", headers={"X-Client-Id": "greedy"}
            )
            second = http_request(
                srv.port, "/v1/status", headers={"X-Client-Id": "greedy"}
            )
            assert first[0] == 200
            assert second[0] == 429
            assert int(second[1]["retry-after"]) >= 1
            assert json.loads(second[2])["error"] == "rate limit exceeded"
            # A different client is unaffected.
            other = http_request(
                srv.port, "/v1/status", headers={"X-Client-Id": "patient"}
            )
            assert other[0] == 200
            # Operational endpoints bypass the limiter entirely.
            assert http_request(
                srv.port, "/healthz", headers={"X-Client-Id": "greedy"}
            )[0] == 200
            assert http_request(
                srv.port, "/metrics", headers={"X-Client-Id": "greedy"}
            )[0] == 200


class TestCacheInvalidation:
    def test_incremental_pass_mid_session_advances_watermark(self, tmp_path):
        """The acceptance criterion: 304 until the watermark moves.

        The server holds a read-only connection; an
        :class:`IncrementalAnalyzer` writes through its own connection on
        this (main) thread. WAL mode lets both proceed, and the very next
        request must see the new detections under a new ETag.
        """
        db_path = tmp_path / "archive.db"
        rows = generate_rows(CORPUS_SCENARIOS[0])
        write_archive(rows, db_path)

        app = ArchiveApiApp(ApiConfig(db_path=db_path))
        with HttpServer() as srv:
            app.serve(srv)
            status1, headers1, body1 = http_request(srv.port, "/v1/status")
            assert status1 == 200
            assert json.loads(body1)["status"]["sandwiches"] == 0
            etag = headers1["etag"]
            # Unchanged archive: conditional GET revalidates.
            assert http_request(
                srv.port, "/v1/status", headers={"If-None-Match": etag}
            )[0] == 304

            writer = ArchiveDatabase(db_path)
            try:
                result = IncrementalAnalyzer(writer).analyze()
            finally:
                writer.close()
            assert result.new_sandwiches > 0

            # Same validator now misses: fresh data, fresh ETag.
            status2, headers2, body2 = http_request(
                srv.port, "/v1/status", headers={"If-None-Match": etag}
            )
            assert status2 == 200
            assert headers2["etag"] != etag
            payload = json.loads(body2)["status"]
            assert payload["sandwiches"] == result.new_sandwiches
            assert (
                headers2["x-archive-watermark"]
                != headers1["x-archive-watermark"]
            )

    def test_full_reanalysis_at_another_threshold_invalidates(self, tmp_path):
        """A full pass that only reclassifies bundles must move the ETag.

        ``quiet-defensive`` has no sandwiches, so re-analysis at another
        threshold only moves length-one bundles between the defensive and
        priority classes: no ``seq`` advances and no row count changes.
        The analysis generation that every replace advances must still
        invalidate the cached ``/v1/financials``.
        """
        scenario = next(
            s for s in CORPUS_SCENARIOS if s.name == "quiet-defensive"
        )
        db_path = write_archive(generate_rows(scenario), tmp_path / "a.db")

        def analyzer(threshold):
            return IncrementalAnalyzer(
                ArchiveDatabase(db_path),
                spec=DetectorSpec(threshold_lamports=threshold),
            )

        def full_pass(threshold):
            engine = ParallelAnalysisEngine(
                ArchiveDatabase(db_path),
                jobs=1,
                spec=DetectorSpec(threshold_lamports=threshold),
            )
            engine.analyze()
            engine.database.close()

        def financials(port, etag=None):
            headers = {"If-None-Match": etag} if etag else None
            return http_request(port, "/v1/financials", headers=headers)

        first = analyzer(100_000)
        first.analyze()  # stamps the watermark row for the no-op below
        app = ArchiveApiApp(ApiConfig(db_path=db_path))
        with HttpServer() as srv:
            app.serve(srv)
            status, headers, body = financials(srv.port)
            assert status == 200
            assert json.loads(body)["financials"]["defensiveBundles"] == 122
            etag = headers["etag"]

            # An incremental no-op writes nothing: the token stays.
            assert first.analyze().no_op
            first.database.close()
            assert financials(srv.port, etag)[0] == 304
            # A refused incremental pass at another threshold writes
            # nothing either.
            refused = analyzer(5_000)
            with pytest.raises(ConfigError):
                refused.analyze()
            refused.database.close()
            assert financials(srv.port, etag)[0] == 304

            # A full pass at 5,000 lamports through its own connection.
            full_pass(5_000)
            status, headers, body = financials(srv.port, etag)
            assert status == 200
            assert headers["etag"] != etag
            assert json.loads(body)["financials"]["defensiveBundles"] == 6


class TestWatermarkReads:
    def test_collector_append_is_visible_to_the_next_request(self, tmp_path):
        """Bundles another connection commits move the very next answer.

        The writer stays open, as a running collector's would: its commit,
        not its close, is what the server must see.
        """
        db_path = tmp_path / "archive.db"
        write_archive(generate_rows(CORPUS_SCENARIOS[0]), db_path)
        app = ArchiveApiApp(ApiConfig(db_path=db_path))
        with HttpServer() as srv:
            app.serve(srv)
            _, before_headers, body = http_request(srv.port, "/v1/status")
            before = json.loads(body)["status"]["bundles"]
            _, page_headers, _ = http_request(srv.port, "/v1/bundles?limit=1")
            etag = page_headers["etag"]
            assert http_request(
                srv.port, "/v1/bundles?limit=1",
                headers={"If-None-Match": etag},
            )[0] == 304

            writer = ArchiveDatabase(db_path)
            try:
                store = ArchiveBundleStore(writer)
                store.add_bundles([make_bundle(i) for i in range(3)])
                store.flush()

                _, headers, body = http_request(srv.port, "/v1/status")
                assert json.loads(body)["status"]["bundles"] == before + 3
                assert (
                    headers["x-archive-watermark"]
                    != before_headers["x-archive-watermark"]
                )
                status, headers, body = http_request(
                    srv.port, "/v1/bundles?limit=1",
                    headers={"If-None-Match": etag},
                )
                assert status == 200
                assert headers["etag"] != etag
                assert json.loads(body)["page"]["total"] == before + 3
            finally:
                writer.close()

    def test_unchanged_archive_reads_the_watermark_once(self, corpus_archive):
        app = ArchiveApiApp(ApiConfig(db_path=corpus_archive))
        with HttpServer() as srv:
            app.serve(srv)
            for _ in range(5):
                assert http_request(srv.port, "/v1/financials")[0] == 200
        latency = app.metrics.get("archive_query_seconds")
        assert latency.count(query="watermark") == 1
        assert latency.count(query="data_version") == 5


@pytest.fixture(scope="module")
def planted(corpus_archive, tmp_path_factory):
    """A copy of the corpus archive with hostile rows, served beside the
    clean original: an infinite ``landed_at`` in the first bundle and in
    the first detection, a malformed ``transaction_ids`` text in the
    hundredth bundle, a text ``victim_loss_quote`` in the eleventh
    detection and an infinite ``victim_loss_usd`` in the twelfth.

    Yields the server port and the ids that the targets below name.
    """
    path = tmp_path_factory.mktemp("serve-planted") / "archive.db"
    source, copy = sqlite3.connect(corpus_archive), sqlite3.connect(path)
    try:
        source.backup(copy)

        def bundle_id(table: str, seq: int) -> str:
            (found,) = copy.execute(
                f"SELECT bundle_id FROM {table} WHERE seq = ?", (seq,)
            ).fetchone()
            return found

        ids = {
            "bundle": bundle_id("bundles", 1),
            "next_bundle": bundle_id("bundles", 2),
            "malformed": bundle_id("bundles", 100),
            "detection": bundle_id("sandwiches", 1),
            "next_detection": bundle_id("sandwiches", 2),
            "quote_detection": bundle_id("sandwiches", 11),
            "usd_detection": bundle_id("sandwiches", 12),
        }
        copy.execute("UPDATE bundles SET landed_at = 9e999 WHERE seq = 1")
        copy.execute("UPDATE sandwiches SET landed_at = 9e999 WHERE seq = 1")
        copy.execute(
            "UPDATE sandwiches SET victim_loss_quote = 'abc' WHERE seq = 11"
        )
        copy.execute(
            "UPDATE sandwiches SET victim_loss_usd = 9e999 WHERE seq = 12"
        )
        copy.execute(
            "UPDATE bundles SET transaction_ids = '[1, 2]' WHERE seq = 100"
        )
        copy.commit()
    finally:
        source.close()
        copy.close()
    app = ArchiveApiApp(
        ApiConfig(
            db_path=path,
            requests_per_second=10_000.0,
            burst_capacity=10_000.0,
        )
    )
    with HttpServer() as srv:
        app.serve(srv)
        yield srv.port, ids


class TestUnservableStoredValue:
    """A stored value the API cannot serve is the archive's fault, not the
    client's: a 500, not a 400."""

    @pytest.mark.parametrize(
        ("planted_target", "away_target", "message"),
        [
            ("/v1/bundles?limit=5", "/v1/bundles?limit=5&offset=5",
             b"cannot be served as JSON"),
            ("/v1/bundles/{bundle}", "/v1/bundles/{next_bundle}",
             b"cannot be served as JSON"),
            ("/v1/detections?limit=5", "/v1/detections?limit=5&offset=5",
             b"cannot be served as JSON"),
            ("/v1/detections/{detection}", "/v1/detections/{next_detection}",
             b"cannot be served as JSON"),
            ("/v1/bundles?limit=5&offset=97", "/v1/bundles?limit=5&offset=5",
             b"malformed transaction_ids"),
            ("/v1/bundles/{malformed}", "/v1/bundles/{next_bundle}",
             b"malformed transaction_ids"),
            ("/v1/detections?limit=5&offset=10",
             "/v1/detections?limit=5&offset=5",
             b"'abc' cannot be served as money"),
            ("/v1/detections/{quote_detection}",
             "/v1/detections/{next_detection}",
             b"'abc' cannot be served as money"),
            ("/v1/detections/{usd_detection}",
             "/v1/detections/{next_detection}",
             b"inf cannot be served as money"),
            ("/v1/financials", "/v1/status",
             b"inf cannot be served as money"),
        ],
        ids=["bundles", "bundle", "detections", "detection",
             "bundles-malformed-ids", "bundle-malformed-ids",
             "detections-text-quote", "detection-text-quote",
             "detection-infinite-usd", "financials-infinite-usd"],
    )
    def test_answers_500_and_keeps_serving(
        self, planted, server, planted_target, away_target, message
    ):
        port, ids = planted
        status, _, body = http_request(port, planted_target.format(**ids))
        assert status == 500
        assert b"internal error" in body
        assert message in body
        assert http_request(port, "/healthz")[0] == 200
        away = away_target.format(**ids)
        status, headers, body = http_request(port, away)
        clean_status, clean_headers, clean_body = http_request(
            server.port, away
        )
        assert (status, headers["etag"], body) == (
            clean_status, clean_headers["etag"], clean_body
        )
        assert status == 200


class TestBusyPort:
    def test_start_raises_the_bind_error_at_once(self, held_port):
        # The server binds when it is built, before the archive is opened.
        started = time.monotonic()
        with pytest.raises(OSError):
            HttpServer(port=held_port)
        assert time.monotonic() - started < 2

    def test_failed_open_leaves_nothing_open(self, tmp_path):
        app = ArchiveApiApp(ApiConfig(db_path=tmp_path / "missing.db"))
        server = HttpServer()
        with pytest.raises(StoreError):
            app.serve(server)
        assert app.query is None
        # The failed start also released the port.
        HttpServer(port=server.port).stop()

    def test_out_of_range_port_creates_no_socket(self, monkeypatch):
        created = []
        real_create_server = socket.create_server

        def create_server(*args, **kwargs):
            created.append(args)
            return real_create_server(*args, **kwargs)

        monkeypatch.setattr(socket, "create_server", create_server)
        with pytest.raises(ConfigError, match="port must be 0-65535"):
            bind_server("127.0.0.1", 70000)
        assert created == []


class TestInterrupt:
    def test_a_second_interrupt_cannot_cut_the_shutdown_short(self):
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        timer = threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGINT))
        try:
            timer.start()
            wait_for_interrupt()
            assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
        finally:
            timer.cancel()
            signal.signal(signal.SIGINT, previous)
