"""FaultInjector: deterministic decisions and observability."""

from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.faults.model import OutageWindow
from repro.obs.registry import MetricsRegistry
from repro.utils.rng import DeterministicRNG
from repro.utils.simtime import SECONDS_PER_DAY, SimClock


def make_injector(plan, seed=5, clock=None, **kwargs):
    return FaultInjector(
        plan,
        DeterministicRNG(seed).child("faults"),
        clock or SimClock(),
        **kwargs,
    )


def drive(injector, endpoint="recent_bundles", calls=200):
    return [injector.intercept(endpoint) for _ in range(calls)]


FLAKY = FaultPlan(
    name="test-flaky",
    specs=(
        FaultSpec(FaultKind.RATE_LIMIT, 0.2, retry_after=60.0),
        FaultSpec(FaultKind.TIMEOUT, 0.1),
    ),
)


class TestDeterminism:
    def test_same_seed_same_fault_sequence(self):
        logs = []
        for _ in range(2):
            injector = make_injector(FLAKY)
            drive(injector)
            logs.append(injector.fault_log_json())
        assert logs[0] == logs[1]
        assert logs[0]  # the plan actually fired

    def test_different_seeds_differ(self):
        a = make_injector(FLAKY, seed=1)
        b = make_injector(FLAKY, seed=2)
        drive(a)
        drive(b)
        assert a.fault_log_json() != b.fault_log_json()

    def test_endpoints_have_independent_streams(self):
        """Traffic on one endpoint must not shift another's decisions."""
        solo = make_injector(FLAKY)
        drive(solo, "recent_bundles", 100)
        solo_kinds = [f.kind for f in solo.log]

        mixed = make_injector(FLAKY)
        for _ in range(100):
            mixed.intercept("recent_bundles")
            mixed.intercept("transactions")  # interleaved extra traffic
        mixed_kinds = [
            f.kind for f in mixed.log if f.endpoint == "recent_bundles"
        ]
        assert mixed_kinds == solo_kinds


class TestDecisions:
    def test_empty_plan_never_fires(self):
        injector = make_injector(FaultPlan(name="empty"))
        assert all(d is None for d in drive(injector))
        assert injector.requests_seen == 200
        assert injector.log == []

    def test_outage_window_beats_probabilistic_specs(self):
        clock = SimClock()
        plan = FaultPlan(
            name="outage",
            specs=(FaultSpec(FaultKind.TIMEOUT, 1.0),),
            outages=(OutageWindow(0.0, 1.0, reason="down"),),
        )
        injector = make_injector(plan, clock=clock)
        decision = injector.intercept("recent_bundles")
        assert decision.kind is FaultKind.OUTAGE
        clock.advance(1.5 * SECONDS_PER_DAY)  # past the window
        decision = injector.intercept("recent_bundles")
        assert decision.kind is FaultKind.TIMEOUT  # certain spec takes over

    def test_certain_spec_always_fires(self):
        plan = FaultPlan(
            name="always", specs=(FaultSpec(FaultKind.UNAVAILABLE, 1.0),)
        )
        injector = make_injector(plan)
        decisions = drive(injector, calls=10)
        assert all(d.kind is FaultKind.UNAVAILABLE for d in decisions)

    def test_windowed_spec_respects_sim_time(self):
        clock = SimClock()
        plan = FaultPlan(
            name="late",
            specs=(FaultSpec(FaultKind.TIMEOUT, 1.0, start_day=1.0),),
        )
        injector = make_injector(plan, clock=clock)
        assert injector.intercept("recent_bundles") is None
        clock.advance(1.5 * SECONDS_PER_DAY)
        assert injector.intercept("recent_bundles").kind is FaultKind.TIMEOUT


class TestObservability:
    def test_metrics_count_injections_by_kind(self):
        metrics = MetricsRegistry()
        plan = FaultPlan(
            name="always", specs=(FaultSpec(FaultKind.UNAVAILABLE, 1.0),)
        )
        injector = make_injector(plan, metrics=metrics)
        drive(injector, calls=7)
        snapshot = metrics.snapshot()
        family = snapshot["metrics"]["faults_injected_total"]
        (series,) = family["series"]
        assert series["labels"] == {
            "endpoint": "recent_bundles",
            "kind": "unavailable",
        }
        assert series["value"] == 7
        intercepted = snapshot["metrics"]["faults_intercepted_requests_total"]
        assert intercepted["series"][0]["value"] == 7

    def test_counts_by_kind_sorted(self):
        injector = make_injector(FLAKY)
        drive(injector)
        counts = injector.counts_by_kind()
        assert list(counts) == sorted(counts)
        assert sum(counts.values()) == len(injector.log)
