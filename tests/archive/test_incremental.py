"""Incremental analysis: two watermarked passes equal one monolithic pass,
and a pass under another detector spec is refused."""

import json

import pytest

from repro.archive import (
    ArchiveBundleStore,
    ArchiveDatabase,
    IncrementalAnalyzer,
)
from repro.collector.campaign import MeasurementCampaign
from repro.conformance.scenarios import (
    CORPUS_SCENARIOS,
    SyntheticScenario,
    generate_rows,
    write_archive,
)
from repro.core import AnalysisPipeline
from repro.errors import ConfigError
from repro.parallel import DetectorSpec, ParallelAnalysisEngine
from repro.parallel.merge import report_bytes
from repro.scenarios.generate import build_pack_campaign
from repro.scenarios.packs import get_pack
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
    writer = ArchiveBundleStore(db)
    writer.add_bundles(bundles)
    writer.add_details(details)
    writer.flush()


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


class TestStageProfile:
    def test_serial_pass_profiles_delta_and_rebuild(self, db, campaign_store):
        fill_archive(
            db,
            list(campaign_store.bundles()),
            list(campaign_store.details()),
        )
        # The default pass (object engine, jobs=1) runs its delta through
        # the chunked engine, so the delta profiles as the engine's stages.
        analyzer = IncrementalAnalyzer(db)
        analyzer.analyze()
        profile = analyzer.stage_profile
        assert list(profile.seconds) == [
            "load",
            "detect",
            "quantify",
            "merge",
            "rebuild",
        ]
        assert profile.chunks >= 1
        assert profile.seconds["rebuild"] > 0
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
        assert analyzer.analyze().no_op
        assert set(analyzer.stage_profile.seconds) == {"rebuild"}


#: The archive of the threshold repros: 74 of its 274 length-one bundles
#: tip below 100,000 lamports, none below 5,000.
THRESHOLD_ROWS = generate_rows(
    SyntheticScenario(name="x", seed=7, bundles=600)
)


def _archive(rows, path):
    return ArchiveDatabase(write_archive(rows, path))


def _full_pass(database, **spec):
    return ParallelAnalysisEngine(
        database, jobs=1, spec=DetectorSpec(**spec)
    ).analyze()


def _fresh_incremental_bytes(rows, path):
    """A standard incremental pass over a fresh copy of ``rows``."""
    with _archive(rows, path) as database:
        return report_bytes(IncrementalAnalyzer(database).analyze().report)


class TestTruncatedTail:
    def test_recollected_tail_is_classified_once(self, tmp_path):
        """A resumed campaign truncates the bundles past its checkpoint and
        collects them again under new ``seq`` values; the classification
        rows of the truncated bundles go with them, so the next pass
        reports each bundle once, as a full pass does."""
        rows = generate_rows(
            next(s for s in CORPUS_SCENARIOS if s.name == "quiet-defensive")
        )
        with _archive(rows, tmp_path / "a.db") as database:
            IncrementalAnalyzer(database).analyze()
            store = ArchiveBundleStore(database)
            checkpoint = database.connection.execute(
                "SELECT seq FROM bundles ORDER BY seq LIMIT 1 OFFSET 99"
            ).fetchone()[0]
            store.truncate_after(checkpoint, database.max_seq("transactions"))
            store.add_bundles([bundle for bundle, _ in rows[100:]])
            store.flush()
            report = IncrementalAnalyzer(database).analyze().report
            full = _full_pass(database)
        assert report.defensive.length_one_total == 122
        assert report.defensive == full.defensive


class TestSpecStamp:
    """The watermark is stamped with the spec its analysis rows came from."""

    def test_pass_with_another_threshold_is_refused_untouched(self, tmp_path):
        database = _archive(THRESHOLD_ROWS, tmp_path / "a.db")
        analyzer = IncrementalAnalyzer(database)
        assert analyzer.analyze().report.headline.defensive_bundles == 74
        counts, state = database.table_counts(), analyzer.load_state()
        other = IncrementalAnalyzer(
            database, spec=DetectorSpec(threshold_lamports=5_000)
        )
        with pytest.raises(ConfigError) as refused:
            other.analyze()
        assert '"threshold_lamports": 100000' in str(refused.value)
        assert '"threshold_lamports": 5000' in str(refused.value)
        assert database.table_counts() == counts
        assert analyzer.load_state() == state
        database.close()

    def test_unstamped_state_is_refused(self, tmp_path):
        database = _archive(THRESHOLD_ROWS[:60], tmp_path / "old.db")
        analyzer = IncrementalAnalyzer(database)
        analyzer.analyze()
        state = analyzer.load_state()["state"]
        del state["spec"]
        database.connection.execute(
            "UPDATE analysis_state SET state = ?", (json.dumps(state),)
        )
        database.connection.commit()
        with pytest.raises(ConfigError, match="before specs were stamped"):
            analyzer.analyze()
        database.close()

    def test_full_pass_between_incremental_passes_restarts_them(
        self, tmp_path
    ):
        database = _archive(THRESHOLD_ROWS, tmp_path / "b.db")
        IncrementalAnalyzer(database).analyze()
        low = _full_pass(database, threshold_lamports=5_000)
        assert low.headline.defensive_bundles == 0
        result = IncrementalAnalyzer(database).analyze()
        assert not result.no_op
        assert result.new_bundles == len(THRESHOLD_ROWS)
        assert result.report.headline.defensive_bundles == 74
        assert report_bytes(result.report) == _fresh_incremental_bytes(
            THRESHOLD_ROWS, tmp_path / "fresh.db"
        )
        database.close()

    def test_windowed_full_pass_then_standard_incremental(self, tmp_path):
        pack = get_pack("pack-adaptive-attacker")
        rows = build_pack_campaign(pack).truth_rows
        database = _archive(rows, tmp_path / "c.db")
        assert _full_pass(database, kind="windowed").sandwich_count == 30
        standard = IncrementalAnalyzer(database).analyze().report
        assert standard.sandwich_count == 14
        assert report_bytes(standard) == _fresh_incremental_bytes(
            rows, tmp_path / "fresh.db"
        )
        database.close()
