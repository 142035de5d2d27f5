"""Differential oracle: API payloads vs the batch analysis report.

The acceptance criterion behind these tests: detections and financial
figures served over HTTP must be byte-consistent with what ``repro
analyze`` computes over the same archive, under the repository's canonical
float rendering (:func:`repro.conformance.canon.fmt_fixed`). The batch
report is recomputed here in-process and every served string compared
against its canonical rendering.
"""

import json

import pytest

from repro.archive.database import ArchiveDatabase
from repro.conformance.canon import fmt_fixed
from repro.conformance.scenarios import (
    CORPUS_SCENARIOS,
    generate_rows,
    write_archive,
)
from repro.parallel.chunks import DetectorSpec
from repro.parallel.engine import ParallelAnalysisEngine
from repro.serve import ApiConfig, ArchiveApiApp, HttpServer
from repro.serve.models import (
    DEFENSIVE_PLACES,
    EVENT_PLACES,
    FRACTION_PLACES,
    TOTAL_PLACES,
)
from tests.serve.conftest import http_json


@pytest.fixture(scope="module")
def report_and_server(corpus_archive):
    """The batch report over the corpus plus an API serving the same file."""
    engine = ParallelAnalysisEngine(
        ArchiveDatabase(corpus_archive, read_only=True), jobs=1
    )
    report = engine.analyze(persist=False)
    engine.database.close()
    app = ArchiveApiApp(
        ApiConfig(
            db_path=corpus_archive,
            requests_per_second=10_000.0,
            burst_capacity=10_000.0,
        )
    )
    with HttpServer() as server:
        app.serve(server)
        yield report, server


def opt(value, places):
    return None if value is None else fmt_fixed(value, places)


class TestFinancialsMatchBatchReport:
    def test_headline_strings_byte_equal(self, report_and_server):
        report, server = report_and_server
        headline = report.headline
        served = http_json(server.port, "/v1/financials")["financials"]
        assert served["sandwichCount"] == headline.sandwich_count
        assert served["nonSolSandwiches"] == headline.non_sol_sandwiches
        assert served["bundlesCollected"] == headline.bundles_collected
        assert served["victimLossUsd"] == fmt_fixed(
            headline.victim_loss_usd, TOTAL_PLACES
        )
        assert served["attackerGainUsd"] == fmt_fixed(
            headline.attacker_gain_usd, TOTAL_PLACES
        )
        assert served["medianVictimLossUsd"] == opt(
            headline.median_victim_loss_usd, TOTAL_PLACES
        )
        assert served["defensiveSpendUsd"] == fmt_fixed(
            headline.defensive_spend_usd, DEFENSIVE_PLACES
        )
        assert served["averageDefensiveTipUsd"] == fmt_fixed(
            headline.average_defensive_tip_usd, DEFENSIVE_PLACES
        )
        assert served["nonSolFraction"] == fmt_fixed(
            headline.non_sol_fraction(), FRACTION_PLACES
        )
        assert served["sandwichBundleFraction"] == fmt_fixed(
            headline.sandwich_bundle_fraction, FRACTION_PLACES
        )
        assert served["defensiveBundles"] == headline.defensive_bundles
        assert served["defensiveFractionOfLengthOne"] == fmt_fixed(
            headline.defensive_fraction_of_length_one, FRACTION_PLACES
        )


class TestDetectionsMatchBatchReport:
    def test_every_event_byte_equal(self, report_and_server):
        report, server = report_and_server
        expected = {q.event.bundle_id: q for q in report.quantified}
        items = []
        offset = 0
        while True:
            page = http_json(
                server.port, f"/v1/detections?limit=100&offset={offset}"
            )
            items.extend(page["items"])
            offset += 100
            if page["page"]["returned"] < 100:
                break
        assert len(items) == len(expected)
        for item in items:
            batch = expected[item["bundleId"]]
            assert item["attacker"] == batch.event.attacker
            assert item["victim"] == batch.event.victim
            assert item["victimLossQuote"] == fmt_fixed(
                batch.victim_loss_quote, EVENT_PLACES
            )
            assert item["attackerGainQuote"] == fmt_fixed(
                batch.attacker_gain_quote, EVENT_PLACES
            )
            assert item["victimLossUsd"] == opt(
                batch.victim_loss_usd, EVENT_PLACES
            )
            assert item["attackerGainUsd"] == opt(
                batch.attacker_gain_usd, EVENT_PLACES
            )

    def test_daily_series_matches_batch_daily(self, report_and_server):
        report, server = report_and_server
        served = http_json(server.port, "/v1/aggregates/daily")["daily"]
        assert {
            date: day["attacks"] for date, day in served.items()
        } == {date: stats.attacks for date, stats in report.daily.items()}


class TestStatusMatchesFinancials:
    def test_status_defensive_is_the_defensive_class(self, tmp_path):
        """``/v1/status`` counts defensive bundles as ``/v1/financials``
        does, not every classified row.

        On ``quiet-defensive`` after a full pass at 5,000 lamports, 6 of
        the 122 classified bundles are defensive and 116 priority.
        """
        scenario = next(
            s for s in CORPUS_SCENARIOS if s.name == "quiet-defensive"
        )
        path = write_archive(generate_rows(scenario), tmp_path / "a.db")
        engine = ParallelAnalysisEngine(
            ArchiveDatabase(path),
            jobs=1,
            spec=DetectorSpec(threshold_lamports=5_000),
        )
        engine.analyze()
        engine.database.close()

        app = ArchiveApiApp(ApiConfig(db_path=path))
        app.open()
        try:

            def get(target):
                status, payload, _headers = app.handle(
                    "GET", target, {}, "test"
                )
                assert status == 200, target
                return json.loads(payload.content)

            status = get("/v1/status")["status"]
            financials = get("/v1/financials")["financials"]
            classes = get("/v1/aggregates/defensive")["defensive"]
        finally:
            app.close()
        assert status["defensive"] == financials["defensiveBundles"] == 6
        assert classes["defensive"]["bundles"] == 6
        assert classes["priority"]["bundles"] == 116
        # The watermark's d field still counts every classified row.
        assert ".d122." in status["watermark"]
