"""Campaign orchestration: simulation and collection on one clock.

Runs a scenario while polling the simulated explorer exactly as the paper's
scraper polled the real one — on a fixed cadence, through the endpoint's
rate limits and instability windows — then drains transaction details for
every collected length-three bundle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collector.client import InProcessExplorerClient
from repro.collector.coverage import CoverageEstimator
from repro.collector.detail_fetcher import DetailFetcherConfig, TxDetailFetcher
from repro.collector.poller import BundlePoller, PollerConfig
from repro.collector.store import BundleStore
from repro.explorer.service import ExplorerConfig, ExplorerService
from repro.faults.client import FaultInjectingClient
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.registry import MetricsRegistry
from repro.simulation.config import ScenarioConfig
from repro.simulation.downtime import DowntimeSchedule
from repro.simulation.engine import SimulationEngine
from repro.simulation.results import SimulationWorld
from repro.utils.rng import DeterministicRNG


def _public_feed_filter(ground_truth):
    """Visibility predicate hiding privately-channelled bundles.

    Consulted live at poll time: a bundle is public unless its generation
    record says it was submitted through a private channel.
    """

    def visible(bundle_id: str) -> bool:
        generated = ground_truth.get(bundle_id)
        return (
            generated is None
            or generated.metadata.get("channel") != "private"
        )

    return visible


def recommended_window_limit(scenario: ScenarioConfig) -> int:
    """Scale the paper's widened 50,000-bundle window to simulation volume.

    The paper's window covered roughly 2.4 poll intervals of typical volume
    (50,000 bundles against ~20,500 landing per two minutes). The campaign
    polls once per block, so the equivalent window is 2.4 block-intervals of
    expected bundle flow — enough that ordinary polls overlap, while spike
    bursts overflow it, reproducing the ~95% successive-overlap statistic.
    """
    per_block = scenario.expected_bundles_per_day() / scenario.blocks_per_day
    return max(10, int(per_block * 2.4))


@dataclass
class CampaignResult:
    """Everything a finished campaign hands to analysis."""

    world: SimulationWorld
    service: ExplorerService
    store: BundleStore
    coverage: CoverageEstimator
    poller: BundlePoller
    fetcher: TxDetailFetcher
    metrics: MetricsRegistry
    faults: FaultInjector | None = None

    @property
    def downtime(self) -> DowntimeSchedule:
        """The injected collection-downtime schedule."""
        return self.world.downtime

    def summary(self) -> dict:
        """Compact collection statistics."""
        return {
            "bundles_collected": len(self.store),
            "bundles_landed": self.world.bundles_landed,
            "collection_completeness": (
                len(self.store) / self.world.bundles_landed
                if self.world.bundles_landed
                else 1.0
            ),
            "details_stored": self.store.detail_count(),
            "polls_ok": self.coverage.successful_polls,
            "polls_failed": self.coverage.failed_polls,
            "overlap_fraction": self.coverage.overlap_fraction(),
            "length_histogram": self.store.length_histogram(),
        }


class MeasurementCampaign:
    """Wires a scenario, an explorer, and the collection pipeline together."""

    def __init__(
        self,
        scenario: ScenarioConfig,
        downtime: DowntimeSchedule | None = None,
        fetcher_config: DetailFetcherConfig | None = None,
        metrics: MetricsRegistry | None = None,
        store: BundleStore | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        # Observability is on by default: recording is passive and every
        # value derives from the shared sim clock, so instrumented and
        # uninstrumented runs produce identical analysis output. Pass
        # ``repro.obs.NULL_REGISTRY`` to disable entirely.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.scenario = scenario
        self.engine = SimulationEngine(scenario, downtime, metrics=self.metrics)
        world = self.engine.world
        self.metrics.set_time_fn(world.clock.now)
        # Scale both page sizes to simulation volume, preserving the
        # paper's widened-window-to-default ratio in spirit: the widened
        # window covers ~2.4 poll intervals of flow, the website default an
        # order of magnitude less.
        window = recommended_window_limit(scenario)
        feed_filter = None
        if scenario.population.sandwich.private_channel_fraction > 0:
            # Attackers route a fraction of bundles through a private
            # channel: the ground truth records the channel per bundle as
            # it lands, and the explorer consults it live, so the poller
            # only ever sees the public sample while the simulation — like
            # the chain itself — holds the full truth.
            feed_filter = _public_feed_filter(world.ground_truth)
        self.service = ExplorerService(
            world.block_engine,
            world.ledger,
            world.clock,
            feed_filter=feed_filter,
            config=ExplorerConfig(
                default_recent_limit=max(1, window // 10),
                max_recent_limit=window,
            ),
            downtime=world.downtime,
            metrics=self.metrics,
        )
        client = InProcessExplorerClient(self.service)
        # Fault injection sits between the pipeline and the transport, in
        # the exact seam the real network occupied. Its RNG is a named
        # child of the scenario seed, so chaos campaigns replay from the
        # seed alone and the simulation's own streams are unperturbed.
        self.faults: FaultInjector | None = None
        if fault_plan is not None:
            self.faults = FaultInjector(
                fault_plan,
                DeterministicRNG(scenario.seed).child("faults"),
                world.clock,
                metrics=self.metrics,
            )
            client = FaultInjectingClient(client, self.faults)
        # An injected store (e.g. a durable archive-backed one) is used
        # as-is; the default remains the plain in-memory store.
        self.store = (
            store if store is not None else BundleStore(metrics=self.metrics)
        )
        self.coverage = CoverageEstimator()
        self.poller = BundlePoller(
            client,
            self.store,
            self.coverage,
            world.clock,
            config=PollerConfig(window_limit=window),
            metrics=self.metrics,
        )
        self.fetcher = TxDetailFetcher(
            client,
            self.store,
            world.clock,
            config=fetcher_config,
            metrics=self.metrics,
        )
        self.engine.on_block(self._after_block)

    def _after_block(self, world: SimulationWorld, _block) -> None:
        self.poller.maybe_poll()
        self.fetcher.maybe_fetch()

    def finalize(self) -> CampaignResult:
        """Close out a campaign whose day loop has already run.

        Lands still-queued bundles, does the final sweep (one last poll
        for the closing block, then pull any details the in-campaign
        fetches did not reach), and assembles the result.
        """
        world = self.engine.finish()
        self.poller.poll_once()
        self.fetcher.drain()
        return CampaignResult(
            world=world,
            service=self.service,
            store=self.store,
            coverage=self.coverage,
            poller=self.poller,
            fetcher=self.fetcher,
            metrics=self.metrics,
            faults=self.faults,
        )

    def run(self) -> CampaignResult:
        """Run simulation + collection, then drain remaining details."""
        self.engine.run_days(0, self.scenario.days)
        return self.finalize()
