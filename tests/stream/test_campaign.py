"""Streaming campaigns: live analysis equals batch, chaos included.

Also covers the archive seam: a streaming campaign collecting into an
``ArchiveBundleStore`` must leave behind the same rows and recorded
analysis a batch campaign would, with the watermark (``max_seq``)
advancing live as flushes happen — which is what keeps ``repro.serve``'s
watermark-keyed cache honest during collection.
"""

import pytest

from repro.archive.database import ArchiveDatabase
from repro.archive.store import ArchiveBundleStore
from repro.collector.campaign import MeasurementCampaign
from repro.core.pipeline import AnalysisPipeline
from repro.faults.plan import preset_plan
from repro.parallel.merge import report_bytes
from repro.simulation.scenario import small_scenario
from repro.stream import StreamingCampaign


def _batch_report(seed, days=2, preset=None):
    campaign = MeasurementCampaign(
        small_scenario(seed=seed, days=days),
        fault_plan=preset_plan(preset) if preset else None,
    )
    result = campaign.run()
    return result, AnalysisPipeline().analyze_campaign(result)


@pytest.mark.parametrize("preset", [None, "storm", "outage"])
def test_streaming_campaign_matches_batch(preset):
    batch_result, batch = _batch_report(77, preset=preset)
    streaming = StreamingCampaign(
        small_scenario(seed=77, days=2),
        fault_plan=preset_plan(preset) if preset else None,
    )
    result, streamed = streaming.run()
    assert len(result.store) == len(batch_result.store)
    assert report_bytes(streamed) == report_bytes(batch)
    assert streaming.builder.finalized
    # Every registered candidate was judged exactly once.
    assert (
        streaming.builder.candidates_judged
        == streaming.detector.candidates_registered
    )


def test_streaming_report_is_ready_at_finalize():
    """The builder holds every verdict the moment run() returns — no
    post-hoc detection pass happens in build()."""
    streaming = StreamingCampaign(small_scenario(seed=11, days=1))
    _, report = streaming.run()
    assert streaming.builder.finalized
    rebuilt = streaming.builder.build(
        poll_overlap_fraction=(
            streaming.result.coverage.overlap_fraction()
        )
    )
    assert report_bytes(rebuilt) == report_bytes(report)


def test_default_campaign_judges_while_collecting():
    """Detection keeps pace with collection: every delta except the
    closing batch's and finalize's is folded before the campaign's
    ``finalize()`` returns (``streaming.result`` is still unset)."""
    collecting = []
    streaming = StreamingCampaign(
        small_scenario(seed=11, days=1),
        on_delta=lambda delta: collecting.append(streaming.result is None),
    )
    streaming.run()
    assert len(collecting) > 2
    assert all(collecting[:-2])
    assert not collecting[-1]


def test_streaming_campaign_archive_matches_batch_archive(tmp_path):
    batch_db = tmp_path / "batch.db"
    stream_db = tmp_path / "stream.db"

    batch_store = ArchiveBundleStore(batch_db)
    batch_campaign = MeasurementCampaign(
        small_scenario(seed=42, days=2), store=batch_store
    )
    batch_result = batch_campaign.run()
    batch = AnalysisPipeline().analyze_campaign(batch_result)
    batch_store.flush()
    batch_store.close()

    stream_store = ArchiveBundleStore(stream_db)
    streaming = StreamingCampaign(
        small_scenario(seed=42, days=2),
        store=stream_store,
    )
    _, streamed = streaming.run()
    stream_store.flush()
    stream_store.close()

    assert report_bytes(streamed) == report_bytes(batch)
    with ArchiveDatabase(batch_db, read_only=True) as a, ArchiveDatabase(
        stream_db, read_only=True
    ) as b:
        assert a.table_counts() == b.table_counts()
        assert a.max_seq("bundles") == b.max_seq("bundles")
        assert a.max_seq("transactions") == b.max_seq("transactions")


def test_streaming_archive_watermark_advances_during_collection(tmp_path):
    """Streaming writes flush through the normal archive machinery, so
    the watermark consumers key caches on moves while the campaign is
    still running — not only at close. Three days collect enough records
    to reach the flush bound twice before the run ends."""
    db = tmp_path / "live.db"
    store = ArchiveBundleStore(db)
    seen = []
    streaming = StreamingCampaign(
        small_scenario(seed=7, days=3),
        store=store,
        on_delta=lambda delta: seen.append(store.database.max_seq("bundles")),
    )
    streaming.run()
    store.close()
    # The watermark climbed mid-run: at least one observation strictly
    # between zero and the final value.
    assert seen
    assert any(0 < mark < seen[-1] for mark in seen)


def test_streaming_campaign_commits_its_bundles_before_its_analysis(tmp_path):
    """The analysis a streaming campaign stores names no uncommitted bundle.

    ``record_analysis`` runs while the write buffer still holds the last
    collected records; it flushes them before its replace transaction, so
    a crash after that commit leaves no analysis row without its bundle.
    """
    store = ArchiveBundleStore(tmp_path / "stream.db")
    record_analysis = store.record_analysis
    at_commit = []

    def checked(report):
        record_analysis(report)
        conn = store.database.connection
        orphans = sum(
            conn.execute(
                f"SELECT COUNT(*) FROM {table} WHERE bundle_id NOT IN "
                "(SELECT bundle_id FROM bundles)"
            ).fetchone()[0]
            for table in ("sandwiches", "defensive")
        )
        at_commit.append((store.pending, orphans))

    store.record_analysis = checked
    StreamingCampaign(small_scenario(seed=7, days=2), store=store).run()
    store.close()
    assert at_commit == [(0, 0)]
