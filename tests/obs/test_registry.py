"""MetricsRegistry unit tests: counters, gauges, histograms, snapshots."""

import pytest

from repro.errors import ConfigError
from repro.obs.registry import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
)


class TestCounter:
    def test_starts_at_zero(self):
        registry = MetricsRegistry()
        assert registry.counter("c_total").value() == 0.0

    def test_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labelled_series_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc(status="ok")
        counter.inc(3, status="failed")
        assert counter.value(status="ok") == 1.0
        assert counter.value(status="failed") == 3.0
        assert counter.value() == 0.0

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigError):
            registry.counter("c_total").inc(-1)

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("c_total") is registry.counter("c_total")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ConfigError):
            registry.gauge("thing")

    def test_invalid_name_rejected(self):
        with pytest.raises(ConfigError):
            MetricsRegistry().counter("bad name!")

    def test_invalid_label_rejected(self):
        with pytest.raises(ConfigError):
            MetricsRegistry().counter("c_total").inc(**{"bad-label": "x"})


class TestGauge:
    def test_set_and_read(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(0.75)
        assert gauge.value() == 0.75

    def test_inc_can_go_negative(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.inc(-2.0)
        assert gauge.value() == -2.0


class TestHistogram:
    def test_observations_land_in_buckets(self):
        histogram = MetricsRegistry().histogram(
            "h_seconds", buckets=(1.0, 10.0)
        )
        histogram.observe(0.5)
        histogram.observe(5.0)
        histogram.observe(100.0)  # beyond last bound -> +Inf
        assert histogram.count() == 3
        assert histogram.total() == 105.5
        [entry] = histogram.snapshot_series()
        assert entry["buckets"]["1.0"] == 1
        assert entry["buckets"]["10.0"] == 2  # cumulative
        assert entry["buckets"]["+Inf"] == 3

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ConfigError):
            MetricsRegistry().histogram("h", buckets=(5.0, 1.0))

    def test_empty_buckets_rejected(self):
        with pytest.raises(ConfigError):
            MetricsRegistry().histogram("h", buckets=())


class TestSnapshot:
    def test_layout_and_determinism(self):
        def build():
            registry = MetricsRegistry(time_fn=lambda: 42.0)
            registry.counter("b_total", "help b").inc(2, kind="x")
            registry.counter("a_total").inc()
            registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
            registry.gauge("g").set(1.5)
            return registry.snapshot()

        first, second = build(), build()
        assert first == second
        assert first["schema"] == "repro.obs/v1"
        assert first["captured_at"] == 42.0
        assert list(first["metrics"]) == sorted(first["metrics"])
        assert first["metrics"]["b_total"]["type"] == "counter"
        assert first["metrics"]["b_total"]["help"] == "help b"
        assert first["metrics"]["b_total"]["series"] == [
            {"labels": {"kind": "x"}, "value": 2}
        ]

    def test_snapshot_is_json_serializable(self):
        import json

        registry = MetricsRegistry()
        registry.histogram("h_seconds").observe(3.0)
        json.dumps(registry.snapshot())

    def test_time_fn_rebinding(self):
        registry = MetricsRegistry()
        assert registry.now() == 0.0
        registry.set_time_fn(lambda: 7.0)
        assert registry.now() == 7.0


class TestNullRegistry:
    def test_records_nothing(self):
        registry = NullRegistry()
        registry.counter("c").inc(5)
        registry.gauge("g").set(1)
        registry.histogram("h").observe(2)
        assert registry.snapshot()["metrics"] == {}
        assert not registry.enabled

    def test_shared_instance(self):
        assert not NULL_REGISTRY.enabled
        assert NULL_REGISTRY.counter("anything").value() == 0.0

    def test_enabled_flag_on_real_registry(self):
        assert MetricsRegistry().enabled
