"""Exporter tests: Prometheus text, JSON snapshots, tables, health."""

import pytest

from repro.errors import ConfigError
from repro.obs.export import (
    load_snapshot,
    render_pipeline_health,
    render_prometheus,
    render_summary,
    save_snapshot,
)
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry


def sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry(time_fn=lambda: 5.0)
    registry.counter("requests_total", "Requests.").inc(3, endpoint="recent")
    registry.gauge("ratio").set(0.25)
    registry.histogram("latency_seconds", "Latency.", buckets=(1.0,)).observe(
        0.5
    )
    return registry


class TestPrometheus:
    def test_renders_counter_with_labels(self):
        text = render_prometheus(sample_registry().snapshot())
        assert "# HELP requests_total Requests." in text
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{endpoint="recent"} 3' in text

    def test_renders_gauge(self):
        text = render_prometheus(sample_registry().snapshot())
        assert "# TYPE ratio gauge" in text
        assert "ratio 0.25" in text

    def test_renders_histogram_with_inf_bucket(self):
        text = render_prometheus(sample_registry().snapshot())
        assert 'latency_seconds_bucket{le="1.0"} 1' in text
        assert 'latency_seconds_bucket{le="+Inf"} 1' in text
        assert "latency_seconds_sum 0.5" in text
        assert "latency_seconds_count 1" in text

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus(NULL_REGISTRY.snapshot()) == ""


class TestSnapshotRoundTrip:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "metrics.json"
        written = save_snapshot(sample_registry(), path)
        loaded = load_snapshot(path)
        assert loaded == written
        assert loaded["captured_at"] == 5.0

    def test_save_accepts_dict(self, tmp_path):
        snapshot = sample_registry().snapshot()
        path = tmp_path / "metrics.json"
        save_snapshot(snapshot, path)
        assert load_snapshot(path) == snapshot

    def test_load_rejects_non_snapshot(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            load_snapshot(path)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"schema": "other/v9", "metrics": {}}')
        with pytest.raises(ConfigError):
            load_snapshot(path)


class TestSummaryTable:
    def test_lists_every_series(self):
        table = render_summary(sample_registry().snapshot())
        assert table.startswith("metrics: 3 series")
        assert 'requests_total{endpoint="recent"}' in table
        assert "count=1 mean=0.5" in table

    def test_empty_snapshot(self):
        assert "empty" in render_summary(NULL_REGISTRY.snapshot())


class TestPipelineHealth:
    def test_disabled_when_empty(self):
        text = render_pipeline_health(NULL_REGISTRY.snapshot())
        assert text == "Pipeline health — observability disabled"

    def test_renders_core_series(self):
        registry = MetricsRegistry()
        registry.counter("collector_polls_total").inc(10, status="ok")
        registry.counter("collector_polls_total").inc(2, status="failed")
        registry.counter("collector_poll_retries_total").inc(6)
        registry.counter("explorer_requests_rejected_total").inc(
            4, endpoint="recent_bundles", reason="rate_limited"
        )
        registry.gauge("collector_overlap_ratio").set(0.95)
        text = render_pipeline_health(registry.snapshot())
        assert "ok=10 failed=2 retries=6" in text
        assert "rate_limited=4" in text
        assert "overlap_ratio=0.9500" in text

    def test_excludes_wall_clock_gauges(self):
        """The wall-clock series the program writes (archive-query, API
        request and conformance-check latencies) leave the section's text
        unchanged."""

        def registry_with(wall_clock: bool) -> MetricsRegistry:
            registry = MetricsRegistry()
            registry.counter("collector_polls_total").inc(1, status="ok")
            registry.counter("detector_bundles_examined_total").inc(7)
            if wall_clock:
                registry.histogram("serve_request_seconds").observe(
                    12.34, route="status"
                )
                registry.histogram("conformance_check_seconds").observe(
                    56.78, family="golden"
                )
                registry.histogram("archive_query_seconds").observe(
                    99.9, query="count_bundles"
                )
            return registry

        with_wall_clock = render_pipeline_health(
            registry_with(True).snapshot()
        )
        assert with_wall_clock == render_pipeline_health(
            registry_with(False).snapshot()
        )
        for value in ("12.34", "56.78", "99.9"):
            assert value not in with_wall_clock
