"""Kill/resume: a resumed campaign must be indistinguishable from one run."""

import dataclasses
import json
import sqlite3

import pytest

from repro.analysis.report import render_campaign_report
from repro.archive import (
    ArchiveDatabase,
    CheckpointedCampaign,
    scenario_fingerprint,
)
from repro.core import AnalysisPipeline
from repro.errors import ConfigError, StoreError
from tests.conftest import tiny_scenario


@pytest.fixture
def scenario():
    """Four deterministic days, small enough for per-test replay."""
    return dataclasses.replace(tiny_scenario(seed=23), days=4)


def rendered_report(result, scenario) -> str:
    report = AnalysisPipeline().analyze_campaign(result)
    return render_campaign_report(result, report, scenario)


def patch_latest_checkpoint(campaign, patch: dict) -> None:
    """Overwrite fields of the archive's latest checkpoint payload."""
    payload = campaign.store.latest_checkpoint()
    payload.update(patch)
    conn = campaign.store.database.connection
    conn.execute(
        "UPDATE checkpoints SET payload = ? WHERE checkpoint_id = "
        "(SELECT MAX(checkpoint_id) FROM checkpoints)",
        (json.dumps(payload),),
    )
    conn.commit()


class TestCheckpointing:
    def test_run_saves_one_checkpoint_per_day_plus_marker(
        self, scenario, tmp_path
    ):
        campaign = CheckpointedCampaign(scenario, tmp_path / "a.db")
        campaign.run()
        counts = campaign.store.database.table_counts()
        assert counts["checkpoints"] == scenario.days + 1
        assert campaign.store.latest_checkpoint()["finished"] is True
        campaign.store.close()

    def test_checkpoint_cadence_respected(self, scenario, tmp_path):
        campaign = CheckpointedCampaign(
            scenario, tmp_path / "a.db", checkpoint_every_days=3
        )
        campaign.run()
        days = [
            row["completed_days"]
            for row in campaign.store.database.connection.execute(
                "SELECT completed_days FROM checkpoints ORDER BY checkpoint_id"
            )
        ]
        # Day 3 (cadence), day 4 (final day), day 4 again (finished marker).
        assert days == [3, 4, 4]
        campaign.store.close()

    def test_pipeline_health_reports_archive_activity(
        self, scenario, tmp_path
    ):
        from repro.obs.export import render_pipeline_health

        campaign = CheckpointedCampaign(scenario, tmp_path / "a.db")
        campaign.run()
        health = render_pipeline_health(campaign.campaign.metrics.snapshot())
        campaign.store.close()
        assert "archive" in health
        assert f"checkpoints={scenario.days + 1}" in health

    def test_invalid_cadence_rejected(self, scenario, tmp_path):
        with pytest.raises(ConfigError):
            CheckpointedCampaign(
                scenario, tmp_path / "a.db", checkpoint_every_days=0
            )


class TestResumeIdentity:
    def test_killed_campaign_resumes_byte_identically(
        self, scenario, tmp_path
    ):
        # Reference: one uninterrupted run.
        reference = CheckpointedCampaign(scenario, tmp_path / "ref.db")
        expected = rendered_report(reference.run(), scenario)
        reference.store.close()

        # "Kill": checkpoint through day 2, collect day 3, flush some
        # post-checkpoint rows, then drop the objects without closing.
        killed = CheckpointedCampaign(scenario, tmp_path / "killed.db")
        for day in range(2):
            killed.campaign.engine.run_day(day)
            killed._save_checkpoint(day + 1)
        killed.campaign.engine.run_day(2)
        killed.store.flush()
        del killed

        resumed = CheckpointedCampaign.resume(scenario, tmp_path / "killed.db")
        assert resumed.start_day == 2
        actual = rendered_report(resumed.run(), scenario)
        resumed.store.close()
        assert actual == expected

    def test_version_one_checkpoint_resumes_byte_identically(
        self, scenario, tmp_path
    ):
        # A version 1 payload carries collector state too; resume reads
        # only the fields it shares with version 2.
        reference = CheckpointedCampaign(scenario, tmp_path / "ref.db")
        expected = rendered_report(reference.run(), scenario)
        reference.store.close()

        killed = CheckpointedCampaign(scenario, tmp_path / "killed.db")
        killed.campaign.engine.run_day(0)
        killed._save_checkpoint(1)
        patch_latest_checkpoint(
            killed, {"version": 1, "poller": {"polls_attempted": 0}}
        )
        killed.store.close()

        resumed = CheckpointedCampaign.resume(scenario, tmp_path / "killed.db")
        actual = rendered_report(resumed.run(), scenario)
        resumed.store.close()
        assert actual == expected

    def test_resumed_metrics_match_uninterrupted_run(self, scenario, tmp_path):
        # The whole snapshot, not one counter: every collector, explorer,
        # store and archive series must read as if the run never stopped.
        reference = CheckpointedCampaign(scenario, tmp_path / "ref.db")
        reference.run()
        expected = reference.campaign.metrics.snapshot()
        reference.store.close()

        killed = CheckpointedCampaign(scenario, tmp_path / "killed.db")
        killed.campaign.engine.run_day(0)
        killed._save_checkpoint(1)
        del killed
        resumed = CheckpointedCampaign.resume(scenario, tmp_path / "killed.db")
        resumed.run()
        actual = resumed.campaign.metrics.snapshot()
        resumed.store.close()
        assert actual == expected


class TestResumeRefusals:
    def test_empty_archive_refused(self, scenario, tmp_path):
        ArchiveDatabase(tmp_path / "a.db").close()
        with pytest.raises(StoreError, match="no checkpoint"):
            CheckpointedCampaign.resume(scenario, tmp_path / "a.db")

    def test_finished_campaign_refused(self, scenario, tmp_path):
        campaign = CheckpointedCampaign(scenario, tmp_path / "a.db")
        campaign.run()
        campaign.store.close()
        with pytest.raises(StoreError, match="finished"):
            CheckpointedCampaign.resume(scenario, tmp_path / "a.db")

    def test_different_scenario_refused(self, scenario, tmp_path):
        campaign = CheckpointedCampaign(scenario, tmp_path / "a.db")
        campaign.campaign.engine.run_day(0)
        campaign._save_checkpoint(1)
        campaign.store.close()
        other = dataclasses.replace(scenario, seed=scenario.seed + 1)
        with pytest.raises(ConfigError, match="fingerprint"):
            CheckpointedCampaign.resume(other, tmp_path / "a.db")

    def test_unknown_checkpoint_version_refused(self, scenario, tmp_path):
        campaign = CheckpointedCampaign(scenario, tmp_path / "a.db")
        campaign.campaign.engine.run_day(0)
        campaign._save_checkpoint(1)
        patch_latest_checkpoint(campaign, {"version": 99})
        campaign.store.close()
        with pytest.raises(ConfigError, match="version"):
            CheckpointedCampaign.resume(scenario, tmp_path / "a.db")

    def test_replay_divergence_detected(self, scenario, tmp_path):
        campaign = CheckpointedCampaign(scenario, tmp_path / "a.db")
        campaign.campaign.engine.run_day(0)
        campaign._save_checkpoint(1)
        patch_latest_checkpoint(campaign, {"rng": {"engine_root": "0" * 16}})
        campaign.store.close()
        with pytest.raises(StoreError, match="RNG"):
            CheckpointedCampaign.resume(scenario, tmp_path / "a.db")

    @staticmethod
    def _killed_archive(scenario, path):
        """Checkpoints after days 1 and 2, then day 3 collected and
        flushed, as a kill between checkpoints leaves an archive."""
        killed = CheckpointedCampaign(scenario, path)
        for day in range(2):
            killed.campaign.engine.run_day(day)
            killed._save_checkpoint(day + 1)
        killed.campaign.engine.run_day(2)
        killed.store.flush()
        killed.store.database.close()
        conn = sqlite3.connect(path)
        (payload,) = conn.execute(
            "SELECT payload FROM checkpoints "
            "ORDER BY checkpoint_id DESC LIMIT 1"
        ).fetchone()
        return conn, json.loads(payload)["store"]

    @staticmethod
    def _row_counts(path) -> tuple[int, int]:
        conn = sqlite3.connect(path)
        try:
            return tuple(
                conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                for table in ("bundles", "transactions")
            )
        finally:
            conn.close()

    def _assert_refused_untouched(
        self, scenario, path, match: str = "does not hold"
    ) -> None:
        before = self._row_counts(path)
        with pytest.raises(StoreError, match=match):
            CheckpointedCampaign.resume(scenario, path)
        assert self._row_counts(path) == before

    def test_archive_missing_a_checkpointed_bundle_refused(
        self, scenario, tmp_path
    ):
        path = tmp_path / "killed.db"
        conn, marks = self._killed_archive(scenario, path)
        (bundle_id,) = conn.execute(
            "SELECT bundle_id FROM bundles "
            "WHERE num_transactions = 3 AND seq <= ? ORDER BY seq LIMIT 1",
            (marks["bundle_seq"],),
        ).fetchone()
        conn.execute(
            "DELETE FROM bundle_transactions WHERE bundle_id = ?", (bundle_id,)
        )
        conn.execute("DELETE FROM bundles WHERE bundle_id = ?", (bundle_id,))
        conn.commit()
        conn.close()
        self._assert_refused_untouched(scenario, path)

    def test_archive_missing_a_checkpointed_detail_refused(
        self, scenario, tmp_path
    ):
        path = tmp_path / "killed.db"
        conn, _ = self._killed_archive(scenario, path)
        conn.execute(
            "DELETE FROM transactions "
            "WHERE seq = (SELECT MIN(seq) FROM transactions)"
        )
        conn.commit()
        conn.close()
        self._assert_refused_untouched(scenario, path)

    def test_archive_with_a_row_the_replay_never_collects_refused(
        self, scenario, tmp_path
    ):
        path = tmp_path / "killed.db"
        conn, _ = self._killed_archive(scenario, path)
        conn.execute(
            "INSERT INTO bundles (seq, bundle_id, slot, landed_at, "
            "landed_date, tip_lamports, num_transactions, transaction_ids) "
            "VALUES (0, 'stray', 1, 1.0, '2024-01-01', 1, 0, '[]')"
        )
        conn.commit()
        conn.close()
        self._assert_refused_untouched(scenario, path, match="replay collected")


class TestScenarioFingerprint:
    def test_stable_for_equal_scenarios(self, scenario):
        assert scenario_fingerprint(scenario) == scenario_fingerprint(
            dataclasses.replace(scenario)
        )

    def test_sensitive_to_any_parameter(self, scenario):
        changed = dataclasses.replace(scenario, blocks_per_day=7)
        assert scenario_fingerprint(changed) != scenario_fingerprint(scenario)
