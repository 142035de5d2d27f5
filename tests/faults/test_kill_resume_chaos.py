"""Kill/resume under chaos: a SIGKILL mid retry-storm must not change bytes.

Extends the archive checkpoint/resume guarantee to fault-injected
campaigns: the storm plan keeps the poller and detail fetcher in constant
retry churn, the run is killed without cleanup between checkpoints, and
the resumed campaign must still render a byte-identical report and fault
log. The checkpoint also records the plan fingerprint, so resuming under
the wrong schedule is refused.
"""

import dataclasses

import pytest

from repro.analysis.report import render_campaign_report
from repro.archive import CheckpointedCampaign
from repro.collector.detail_fetcher import DetailFetcherConfig
from repro.core import AnalysisPipeline
from repro.errors import ConfigError
from repro.faults import preset_plan
from tests.conftest import tiny_scenario


@pytest.fixture
def scenario():
    return dataclasses.replace(tiny_scenario(seed=23), days=4)


STORM = preset_plan("storm")
FETCHER = DetailFetcherConfig(max_retries=2)


def chaos_campaign(scenario, db_path, plan=STORM):
    return CheckpointedCampaign(
        scenario, db_path, fetcher_config=FETCHER, fault_plan=plan
    )


def rendered_report(result, scenario) -> str:
    report = AnalysisPipeline().analyze_campaign(result)
    return render_campaign_report(result, report, scenario)


class TestKillResumeUnderChaos:
    def test_resume_mid_storm_is_byte_identical(self, scenario, tmp_path):
        reference = chaos_campaign(scenario, tmp_path / "ref.db")
        reference_result = reference.run()
        assert reference_result.faults.log, "storm plan should have fired"
        expected_report = rendered_report(reference_result, scenario)
        expected_fault_log = reference_result.faults.fault_log_json()
        expected_metrics = reference_result.metrics.snapshot()
        reference.store.close()

        # "Kill": checkpoint through day 2, collect day 3 (more faults and
        # retries land after the checkpoint), then drop without closing —
        # the archive is left exactly as a SIGKILL would leave it.
        killed = chaos_campaign(scenario, tmp_path / "killed.db")
        for day in range(2):
            killed.campaign.engine.run_day(day)
            killed._save_checkpoint(day + 1)
        assert killed.campaign.faults.log, "killed mid retry storm"
        killed.campaign.engine.run_day(2)
        killed.store.flush()
        del killed

        resumed = CheckpointedCampaign.resume(
            scenario,
            tmp_path / "killed.db",
            fetcher_config=FETCHER,
            fault_plan=STORM,
        )
        assert resumed.start_day == 2
        resumed_result = resumed.run()
        actual_report = rendered_report(resumed_result, scenario)
        actual_fault_log = resumed_result.faults.fault_log_json()
        actual_metrics = resumed_result.metrics.snapshot()
        resumed.store.close()
        assert actual_fault_log == expected_fault_log
        assert actual_report == expected_report
        assert actual_metrics == expected_metrics


class TestResumeRefusals:
    def _killed_archive(self, scenario, tmp_path, plan=STORM):
        killed = chaos_campaign(scenario, tmp_path / "killed.db", plan=plan)
        killed.campaign.engine.run_day(0)
        killed._save_checkpoint(1)
        killed.store.close()
        return tmp_path / "killed.db"

    def test_wrong_plan_refused(self, scenario, tmp_path):
        db = self._killed_archive(scenario, tmp_path)
        with pytest.raises(ConfigError, match="fault plan"):
            CheckpointedCampaign.resume(
                scenario,
                db,
                fetcher_config=FETCHER,
                fault_plan=preset_plan("flaky"),
            )

    def test_missing_plan_refused(self, scenario, tmp_path):
        db = self._killed_archive(scenario, tmp_path)
        with pytest.raises(ConfigError, match="fault injection"):
            CheckpointedCampaign.resume(scenario, db, fetcher_config=FETCHER)

    def test_introducing_a_plan_refused(self, scenario, tmp_path):
        killed = CheckpointedCampaign(
            scenario, tmp_path / "plain.db", fetcher_config=FETCHER
        )
        killed.campaign.engine.run_day(0)
        killed._save_checkpoint(1)
        killed.store.close()
        with pytest.raises(ConfigError, match="without fault injection"):
            CheckpointedCampaign.resume(
                scenario,
                tmp_path / "plain.db",
                fetcher_config=FETCHER,
                fault_plan=STORM,
            )
