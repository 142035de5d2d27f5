"""End-to-end pipeline tests over the session campaign."""

import copy

import pytest

from repro.agents.base import Label
from repro.conformance.scenarios import (
    CORPUS_SCENARIOS,
    build_store,
    generate_rows,
)
from repro.core import AnalysisPipeline
from repro.core.aggregate import sandwiches_per_day
from repro.dex.oracle import PriceOracle
from repro.parallel.merge import report_bytes


class TestAnalysisReport:
    def test_bundles_landed(self, small_campaign):
        assert small_campaign.world.bundles_landed > 0

    def test_sandwiches_detected(self, small_report):
        assert small_report.sandwich_count > 0
        assert small_report.sandwich_count == len(small_report.quantified)

    def test_headline_consistency(self, small_report):
        headline = small_report.headline
        assert headline.sandwich_count == small_report.sandwich_count
        assert 0.0 <= headline.non_sol_fraction() <= 1.0
        assert headline.victim_loss_usd > 0
        assert headline.attacker_gain_usd > 0
        assert len(headline.losses_usd) <= headline.sandwich_count

    def test_median_loss_positive(self, small_report):
        assert small_report.headline.median_victim_loss_usd > 0

    def test_sandwich_fraction_in_range(self, small_report):
        assert 0.0 < small_report.headline.sandwich_bundle_fraction < 0.2

    def test_overlap_fraction_carried(self, small_report):
        assert 0.0 < small_report.headline.poll_overlap_fraction <= 1.0

    def test_daily_attacks_sum_to_total(self, small_report):
        total = sum(stats.attacks for stats in small_report.daily.values())
        assert total == small_report.sandwich_count

    def test_daily_losses_sum_to_headline(self, small_report):
        oracle = PriceOracle()
        daily_sum = sum(
            stats.victim_loss_sol for stats in small_report.daily.values()
        )
        assert daily_sum * oracle.usd_per_sol == pytest.approx(
            small_report.headline.victim_loss_usd
        )

    def test_defensive_report_attached(self, small_report):
        assert small_report.defensive.length_one_total > 0
        assert small_report.headline.defensive_bundles == len(
            small_report.defensive.defensive_ids
        )


class TestReuse:
    def test_each_pass_reports_what_a_fresh_pipeline_does(self):
        store = build_store(generate_rows(CORPUS_SCENARIOS[0]))
        fresh = report_bytes(AnalysisPipeline().analyze_store(store))
        pipeline = AnalysisPipeline()
        first = pipeline.analyze_store(store)
        first_stats = copy.deepcopy(first.detection_stats)
        second = pipeline.analyze_store(store)
        assert report_bytes(second) == fresh
        assert report_bytes(first) == fresh
        assert first.detection_stats == first_stats


class TestGroundTruthAgreement:
    def test_no_false_positives(self, small_campaign, small_report):
        truth = small_campaign.world.ground_truth
        for quantified in small_report.quantified:
            assert truth.label_of(quantified.event.bundle_id) is Label.SANDWICH

    def test_non_sol_flag_agrees_with_ground_truth(
        self, small_campaign, small_report
    ):
        truth = small_campaign.world.ground_truth
        for quantified in small_report.quantified:
            generated = truth.get(quantified.event.bundle_id)
            assert quantified.event.involves_sol == generated.metadata[
                "involves_sol"
            ]

    def test_attacker_identity_agrees(self, small_campaign, small_report):
        truth = small_campaign.world.ground_truth
        for quantified in small_report.quantified:
            generated = truth.get(quantified.event.bundle_id)
            assert quantified.event.attacker == generated.metadata["attacker"]
            assert quantified.event.victim == generated.metadata["victim"]


class TestAggregation:
    def test_sandwiches_per_day_dates_sorted(self, small_report):
        dates = list(small_report.daily)
        assert dates == sorted(dates)

    def test_empty_input_produces_empty_daily(self):
        assert sandwiches_per_day([], PriceOracle()) == {}
