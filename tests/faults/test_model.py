"""Fault taxonomy: spec validation, windows, and wire round-trips."""

import pytest

from repro.errors import ConfigError
from repro.faults import FaultKind, FaultSpec, OutageWindow
from repro.faults.model import ERROR_KINDS, KNOWN_ENDPOINTS


class TestFaultSpec:
    def test_string_kind_coerced(self):
        spec = FaultSpec(kind="rate_limit", probability=0.1)
        assert spec.kind is FaultKind.RATE_LIMIT

    def test_probability_bounds_enforced(self):
        with pytest.raises(ConfigError, match="probability"):
            FaultSpec(FaultKind.TIMEOUT, probability=1.5)
        with pytest.raises(ConfigError, match="probability"):
            FaultSpec(FaultKind.TIMEOUT, probability=-0.1)

    def test_window_must_have_positive_length(self):
        with pytest.raises(ConfigError, match="window"):
            FaultSpec(FaultKind.TIMEOUT, 0.1, start_day=2.0, end_day=2.0)

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ConfigError, match="unknown endpoint"):
            FaultSpec(FaultKind.TIMEOUT, 0.1, endpoints=("bogus",))

    def test_drop_fraction_bounds(self):
        with pytest.raises(ConfigError, match="drop_fraction"):
            FaultSpec(FaultKind.TRUNCATE, 0.1, drop_fraction=0.0)
        FaultSpec(FaultKind.TRUNCATE, 0.1, drop_fraction=1.0)  # allowed

    def test_applies_to_respects_endpoint_and_window(self):
        spec = FaultSpec(
            FaultKind.TIMEOUT,
            0.5,
            endpoints=("recent_bundles",),
            start_day=1.0,
            end_day=2.0,
        )
        assert spec.applies_to("recent_bundles", 1.5)
        assert not spec.applies_to("transactions", 1.5)
        assert not spec.applies_to("recent_bundles", 0.5)
        assert not spec.applies_to("recent_bundles", 2.0)  # half-open

    def test_empty_endpoints_means_all(self):
        spec = FaultSpec(FaultKind.TIMEOUT, 0.5)
        for endpoint in KNOWN_ENDPOINTS:
            assert spec.applies_to(endpoint, 0.0)

    def test_json_round_trip(self):
        spec = FaultSpec(
            FaultKind.RATE_LIMIT,
            0.25,
            endpoints=("transactions",),
            start_day=0.5,
            end_day=3.0,
            retry_after=90.0,
        )
        assert FaultSpec.from_json(spec.to_json()) == spec

    def test_json_round_trip_defaults(self):
        spec = FaultSpec(FaultKind.TRUNCATE, 0.1, drop_fraction=0.7)
        assert FaultSpec.from_json(spec.to_json()) == spec


class TestErrorKinds:
    def test_mutation_kinds_are_the_complement(self):
        mutations = set(FaultKind) - ERROR_KINDS
        assert mutations == {
            FaultKind.TRUNCATE,
            FaultKind.REORDER,
            FaultKind.CLOCK_SKEW,
        }


class TestOutageWindow:
    def test_contains_is_half_open(self):
        window = OutageWindow(1.0, 2.0)
        assert window.contains(1.0)
        assert window.contains(1.999)
        assert not window.contains(2.0)

    def test_zero_length_rejected(self):
        with pytest.raises(ConfigError, match="positive length"):
            OutageWindow(1.0, 1.0)

    def test_json_round_trip(self):
        window = OutageWindow(0.25, 1.5, reason="interface change")
        assert OutageWindow.from_json(window.to_json()) == window
