"""Incremental analysis: two watermarked passes equal one monolithic pass."""

import pytest

from repro.archive import ArchiveBundleStore, FlushPolicy, IncrementalAnalyzer
from repro.collector.campaign import MeasurementCampaign
from repro.core import AnalysisPipeline
from tests.conftest import tiny_scenario


@pytest.fixture(scope="module")
def campaign_store():
    """A finished tiny campaign's in-memory store (module-scoped; read-only)."""
    return MeasurementCampaign(tiny_scenario(seed=31)).run().store


@pytest.fixture(scope="module")
def monolithic(campaign_store):
    """The single-pass reference report over the full store."""
    return AnalysisPipeline().analyze_store(campaign_store)


def fill_archive(db, bundles, details):
    writer = ArchiveBundleStore(db, flush_policy=FlushPolicy(1))
    writer.add_bundles(bundles)
    writer.add_details(details)


class TestTwoPassEqualsMonolithic:
    def test_split_ingest_matches_single_pass(
        self, db, campaign_store, monolithic
    ):
        bundles = list(campaign_store.bundles())
        details = list(campaign_store.details())
        half = len(bundles) // 2

        # Pass 1: first half of the bundles, no details yet — every
        # length-three candidate in it is left pending.
        fill_archive(db, bundles[:half], [])
        analyzer = IncrementalAnalyzer(db)
        first = analyzer.analyze()
        assert first.new_bundles == half

        # Pass 2: the rest of the campaign plus all details.
        fill_archive(db, bundles[half:], details)
        second = analyzer.analyze(sim_time=42.0)
        report = second.report

        assert second.new_bundles == len(bundles) - half
        assert second.pending_detail_bundles == 0
        assert report.sandwich_count == monolithic.sandwich_count
        assert report.headline == monolithic.headline
        assert report.detection_stats == monolithic.detection_stats
        assert {day: stats.attacks for day, stats in report.daily.items()} == {
            day: stats.attacks for day, stats in monolithic.daily.items()
        }
        assert (
            report.defensive.defensive_fraction
            == monolithic.defensive.defensive_fraction
        )

    def test_pending_candidates_carry_across_passes(self, db, campaign_store):
        bundles = list(campaign_store.bundles())
        details = list(campaign_store.details())
        fill_archive(db, bundles, [])
        analyzer = IncrementalAnalyzer(db)
        first = analyzer.analyze()
        candidates = len(campaign_store.bundles_of_length(3))
        assert first.pending_detail_bundles == candidates
        assert first.new_sandwiches == 0

        fill_archive(db, [], details)
        second = analyzer.analyze()
        assert second.new_bundles == 0
        assert second.pending_detail_bundles == 0
        # The carried-over correction keeps the skip count monotonic-free:
        # a bundle pending in pass 1 is not double-counted once examined.
        assert second.report.detection_stats.bundles_skipped_incomplete == 0
        assert second.report.detection_stats.bundles_examined == candidates


class TestWatermark:
    def test_second_pass_with_no_new_rows_is_a_noop(
        self, db, campaign_store, monolithic
    ):
        fill_archive(
            db,
            list(campaign_store.bundles()),
            list(campaign_store.details()),
        )
        analyzer = IncrementalAnalyzer(db)
        first = analyzer.analyze()
        second = analyzer.analyze()
        assert second.new_bundles == 0
        assert second.new_sandwiches == 0
        assert second.report.headline == first.report.headline
        assert second.report.headline == monolithic.headline

    def test_state_rows_track_high_water_marks(self, db, campaign_store):
        fill_archive(
            db,
            list(campaign_store.bundles()),
            list(campaign_store.details()),
        )
        analyzer = IncrementalAnalyzer(db)
        analyzer.analyze(sim_time=7.0)
        state = analyzer.load_state()
        assert state["last_bundle_seq"] == db.max_seq("bundles")
        assert state["last_detail_seq"] == db.max_seq("transactions")
        assert state["updated_sim_time"] == 7.0

    def test_consumers_progress_independently(self, db, campaign_store):
        fill_archive(db, list(campaign_store.bundles()), [])
        IncrementalAnalyzer(db, consumer="nightly").analyze()
        fresh = IncrementalAnalyzer(db, consumer="adhoc")
        assert fresh.load_state()["last_bundle_seq"] == 0
        result = fresh.analyze()
        assert result.new_bundles == len(campaign_store)


class TestStageProfile:
    def test_serial_pass_profiles_delta_and_rebuild(self, db, campaign_store):
        fill_archive(
            db,
            list(campaign_store.bundles()),
            list(campaign_store.details()),
        )
        analyzer = IncrementalAnalyzer(db)
        analyzer.analyze()
        assert set(analyzer.stage_profile.seconds) == {"delta", "rebuild"}
        assert analyzer.stage_profile.seconds["rebuild"] > 0
        # A no-op pass touches no delta: the rebuild is all it profiles.
        assert analyzer.analyze().no_op
        assert set(analyzer.stage_profile.seconds) == {"rebuild"}

    def test_chunked_pass_profiles_engine_stages_and_rebuild(
        self, db, campaign_store
    ):
        pytest.importorskip("numpy")
        fill_archive(
            db,
            list(campaign_store.bundles()),
            list(campaign_store.details()),
        )
        analyzer = IncrementalAnalyzer(db, engine="columnar")
        analyzer.analyze()
        profile = analyzer.stage_profile
        assert list(profile.seconds) == [
            "load",
            "intern",
            "detect",
            "quantify",
            "merge",
            "rebuild",
        ]
        assert profile.chunks >= 1
        assert profile.seconds["load"] > 0
        assert profile.seconds["rebuild"] > 0
