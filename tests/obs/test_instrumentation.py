"""Pipeline instrumentation tests: real campaigns populate real series.

These are the acceptance checks for the observability layer: a default
campaign produces nonzero poll, retry, rejection, dedup, endpoint, and
detection series; recording is passive, so analysis output is identical
with the registry enabled and disabled.
"""

import pytest

from repro import AnalysisPipeline, MeasurementCampaign
from repro.analysis.report import render_campaign_report
from repro.errors import RateLimitedError
from repro.explorer.service import ExplorerConfig, ExplorerService
from repro.obs.export import render_pipeline_health
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.simulation import SimulationEngine
from tests.conftest import tiny_scenario


def counter_total(result, name: str, **where: str) -> float:
    """Sum a counter family across series matching the given labels."""
    family = result.metrics.snapshot()["metrics"].get(name)
    if family is None:
        return 0.0
    return sum(
        entry["value"]
        for entry in family["series"]
        if all(
            entry["labels"].get(key) == value
            for key, value in where.items()
        )
    )


class TestCampaignSeries:
    """The session campaign (pinned downtime) fills every core family."""

    def test_poll_series_nonzero(self, small_campaign):
        assert counter_total(
            small_campaign, "collector_polls_total", status="ok"
        ) > 0
        assert counter_total(
            small_campaign, "collector_polls_total", status="failed"
        ) > 0
        assert counter_total(
            small_campaign, "collector_poll_retries_total"
        ) > 0

    def test_collection_series_nonzero(self, small_campaign):
        assert counter_total(
            small_campaign, "collector_bundles_new_total"
        ) > 0
        assert counter_total(
            small_campaign, "store_bundle_dedup_hits_total"
        ) > 0
        assert counter_total(
            small_campaign, "collector_detail_batches_total", outcome="ok"
        ) > 0

    def test_explorer_series_nonzero(self, small_campaign):
        for endpoint in ("recent_bundles", "transactions"):
            assert counter_total(
                small_campaign,
                "explorer_requests_total",
                endpoint=endpoint,
            ) > 0
        # The pinned downtime window guarantees 503 rejections.
        assert counter_total(
            small_campaign,
            "explorer_requests_rejected_total",
            reason="unavailable",
        ) > 0

    def test_simulation_series_nonzero(self, small_campaign):
        blocks = counter_total(small_campaign, "sim_blocks_produced_total")
        scenario = small_campaign.world.config
        # The engine appends one final sweep block after the last day.
        assert blocks == scenario.days * scenario.blocks_per_day + 1
        assert counter_total(
            small_campaign, "sim_bundles_generated_total"
        ) > 0

    def test_detection_series_after_analysis(
        self, small_campaign, small_report
    ):
        # analyze_campaign adopts the campaign registry, so detection
        # counters land next to collection counters.
        assert small_report.sandwich_count == counter_total(
            small_campaign, "detector_sandwiches_total"
        )
        assert counter_total(
            small_campaign, "detector_bundles_examined_total"
        ) > 0
        assert counter_total(
            small_campaign, "defensive_bundles_total"
        ) > 0

    def test_health_section_in_rendered_report(
        self, small_campaign, small_report
    ):
        text = render_campaign_report(
            small_campaign, small_report, small_campaign.world.config
        )
        assert "Pipeline health" in text
        assert "observability disabled" not in text


class TestRateLimitSeries:
    """A hostile client trips the token bucket and the 429 counters."""

    def test_tight_bucket_records_rejections(self):
        world = SimulationEngine(tiny_scenario(seed=23)).run()
        service = ExplorerService(
            world.block_engine,
            world.ledger,
            world.clock,
            config=ExplorerConfig(
                requests_per_second=0.0001, burst_capacity=2.0
            ),
            metrics=MetricsRegistry(time_fn=world.clock.now),
        )
        with pytest.raises(RateLimitedError):
            for _ in range(5):
                service.recent_bundles(limit=1, client_id="greedy")
        snapshot = service.metrics.snapshot()["metrics"]
        rejected = snapshot["explorer_requests_rejected_total"]["series"]
        [entry] = [
            e for e in rejected
            if e["labels"]["reason"] == "rate_limited"
        ]
        assert entry["value"] > 0
        tokens = snapshot["ratelimit_tokens_rejected_total"]["series"]
        assert tokens[0]["value"] > 0


class TestPassiveRecording:
    """Instrumentation never perturbs the measurement itself."""

    def strip_health(self, text: str) -> str:
        """Drop the health section, which legitimately differs when off."""
        head, _, _ = text.partition("Pipeline health")
        return head

    def run_campaign(self, metrics):
        campaign = MeasurementCampaign(
            tiny_scenario(seed=13), metrics=metrics
        )
        result = campaign.run()
        report = AnalysisPipeline().analyze_campaign(result)
        return result, report

    def test_analysis_identical_with_and_without_registry(self):
        on_result, on_report = self.run_campaign(metrics=None)
        off_result, off_report = self.run_campaign(metrics=NULL_REGISTRY)
        assert len(on_result.store) == len(off_result.store)
        assert on_report.sandwich_count == off_report.sandwich_count
        assert (
            on_report.headline.victim_loss_usd
            == off_report.headline.victim_loss_usd
        )
        on_text = render_campaign_report(
            on_result, on_report, on_result.world.config
        )
        off_text = render_campaign_report(
            off_result, off_report, off_result.world.config
        )
        assert self.strip_health(on_text) == self.strip_health(off_text)
        assert render_pipeline_health(off_result.metrics.snapshot()) == (
            "Pipeline health — observability disabled"
        )
