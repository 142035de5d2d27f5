"""Defensive-bundling classifier tests (paper Section 3.3)."""

import pytest

from repro.agents.base import Label
from repro.collector.store import BundleStore
from repro.constants import DEFENSIVE_TIP_THRESHOLD_LAMPORTS, LAMPORTS_PER_SOL
from repro.core.defensive import DefensiveBundlingClassifier
from repro.dex.oracle import PriceOracle
from repro.errors import ConfigError
from repro.explorer.models import BundleRecord


def bundle(i: int, length: int = 1, tip: int = 1_000, day: float = 0.0):
    return BundleRecord(
        bundle_id=f"b{i}",
        slot=i,
        landed_at=1_739_059_200.0 + day * 86_400,
        tip_lamports=tip,
        transaction_ids=tuple(f"t{i}-{j}" for j in range(length)),
    )


class TestClassification:
    def test_threshold_boundary_inclusive(self):
        at = bundle(1, tip=DEFENSIVE_TIP_THRESHOLD_LAMPORTS)
        above = bundle(2, tip=DEFENSIVE_TIP_THRESHOLD_LAMPORTS + 1)
        report = DefensiveBundlingClassifier().classify_records([at, above])
        assert report.defensive_ids == ["b1"]
        assert report.priority_ids == ["b2"]

    def test_length_filter(self):
        report = DefensiveBundlingClassifier().classify_records(
            [bundle(1, length=3, tip=1_000)]
        )
        assert report.length_one_total == 0

    def test_classify_splits_length_one(self):
        store = BundleStore()
        store.add_bundles(
            [
                bundle(1, tip=1_000),
                bundle(2, tip=50_000),
                bundle(3, tip=500_000),
                bundle(4, length=3, tip=1_000),
            ]
        )
        report = DefensiveBundlingClassifier().classify(store)
        assert report.defensive_ids == ["b1", "b2"]
        assert report.priority_ids == ["b3"]
        assert report.length_one_total == 3
        assert report.defensive_fraction == pytest.approx(2 / 3)

    def test_custom_threshold(self):
        classifier = DefensiveBundlingClassifier(threshold_lamports=10_000)
        report = classifier.classify_records([bundle(1, tip=50_000)])
        assert report.priority_ids == ["b1"]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            DefensiveBundlingClassifier(threshold_lamports=-1)


class TestReportEconomics:
    def make_report(self):
        store = BundleStore()
        store.add_bundles(
            [
                bundle(1, tip=10_000, day=0),
                bundle(2, tip=20_000, day=0),
                bundle(3, tip=30_000, day=1),
            ]
        )
        return DefensiveBundlingClassifier().classify(store)

    def test_total_tips(self):
        assert self.make_report().defensive_tips_lamports == 60_000

    def test_spend_usd(self):
        oracle = PriceOracle(usd_per_sol=100.0)
        expected = 60_000 / LAMPORTS_PER_SOL * 100.0
        assert self.make_report().defensive_spend_usd(oracle) == pytest.approx(
            expected
        )

    def test_average_tip_usd(self):
        oracle = PriceOracle(usd_per_sol=100.0)
        expected = 20_000 / LAMPORTS_PER_SOL * 100.0
        assert self.make_report().average_defensive_tip_usd(
            oracle
        ) == pytest.approx(expected)

    def test_average_tip_sol(self):
        assert self.make_report().average_defensive_tip_sol() == pytest.approx(
            20_000 / LAMPORTS_PER_SOL
        )

    def test_per_day_series(self):
        per_day = self.make_report().defensive_per_day()
        assert per_day == {"2025-02-09": 2, "2025-02-10": 1}

    def test_empty_report_safe(self):
        report = DefensiveBundlingClassifier().classify(BundleStore())
        oracle = PriceOracle()
        assert report.defensive_fraction == 0.0
        assert report.defensive_spend_usd(oracle) == 0.0
        assert report.average_defensive_tip_usd(oracle) == 0.0


class TestOnCampaign:
    def test_defensive_fraction_near_paper(self, small_campaign):
        report = DefensiveBundlingClassifier().classify(small_campaign.store)
        # Paper: ~86%. The small campaign is noisy; allow a wide band.
        assert 0.70 <= report.defensive_fraction <= 0.97

    def test_classification_matches_ground_truth(self, small_campaign):
        report = DefensiveBundlingClassifier().classify(small_campaign.store)
        truth = small_campaign.world.ground_truth
        for bundle_id in report.defensive_ids:
            assert truth.label_of(bundle_id) is Label.DEFENSIVE
        for bundle_id in report.priority_ids:
            assert truth.label_of(bundle_id) is Label.PRIORITY
