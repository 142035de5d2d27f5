"""Analyze-while-collecting: a measurement campaign folded as it runs.

Wraps :class:`~repro.collector.campaign.MeasurementCampaign` without
changing its collection behaviour: a tap on the campaign's
:class:`~repro.collector.store.BundleStore` buffers every genuinely-new
record, and :meth:`StreamingCampaign._batches` drives the simulation
block by block (via
:meth:`~repro.simulation.engine.SimulationEngine.iter_day_blocks`),
yielding one :class:`~repro.stream.events.StreamBatch` per block. Each
batch is detected and folded into the report builder before the next
block is simulated, so the final report is ready the moment the
campaign's last drain completes — and it is byte-identical to what the
batch path would compute over the same store, a contract the
conformance oracle's ``stream`` column enforces.
"""

from __future__ import annotations

from typing import Iterator

from repro.collector.campaign import CampaignResult, MeasurementCampaign
from repro.collector.store import BundleStore
from repro.core.pipeline import AnalysisReport, publish_detection_metrics
from repro.explorer.models import BundleRecord, TransactionRecord
from repro.faults.plan import FaultPlan
from repro.obs.registry import MetricsRegistry
from repro.simulation.config import ScenarioConfig
from repro.stream.deltas import IncrementalReportBuilder
from repro.stream.detector import StreamingDetector
from repro.stream.events import StreamBatch
from repro.stream.pipeline import DeltaObserver, fold_batches


class CollectorTap:
    """Buffers a store's genuinely-new records between publish points.

    Attached via :meth:`~repro.collector.store.BundleStore.attach_tap`;
    the store invokes :meth:`bundles_added` / :meth:`details_added` after
    dedup, so every record crosses the tap exactly once and in insertion
    order. :meth:`take` hands the buffer over as one immutable batch.
    """

    def __init__(self) -> None:
        self._bundles: list[BundleRecord] = []
        self._details: list[TransactionRecord] = []

    def bundles_added(self, records: list[BundleRecord]) -> None:
        """Store callback: freshly inserted bundles."""
        self._bundles.extend(records)

    def details_added(self, records: list[TransactionRecord]) -> None:
        """Store callback: freshly inserted transaction details."""
        self._details.extend(records)

    def take(self) -> StreamBatch | None:
        """Drain the buffer into a batch; ``None`` when nothing arrived."""
        if not self._bundles and not self._details:
            return None
        batch = StreamBatch(
            bundles=tuple(self._bundles), details=tuple(self._details)
        )
        self._bundles.clear()
        self._details.clear()
        return batch


class StreamingCampaign:
    """A measurement campaign whose analysis runs while it collects.

    It analyzes under the default
    :class:`~repro.core.detector.DetectorSpec`, as the batch campaign's
    :class:`~repro.core.pipeline.AnalysisPipeline` does.
    """

    def __init__(
        self,
        scenario: ScenarioConfig,
        metrics: MetricsRegistry | None = None,
        store: BundleStore | None = None,
        fault_plan: FaultPlan | None = None,
        on_delta: DeltaObserver | None = None,
    ) -> None:
        self.campaign = MeasurementCampaign(
            scenario, metrics=metrics, store=store, fault_plan=fault_plan
        )
        self.on_delta = on_delta
        self.detector = StreamingDetector(metrics=self.campaign.metrics)
        self.builder = IncrementalReportBuilder(spec=self.detector.spec)
        self.tap = CollectorTap()
        # Attached after construction (and after any resume-time load), so
        # only records collected by *this* run flow through the stream.
        self.campaign.store.attach_tap(self.tap)
        self.result: CampaignResult | None = None
        self.report: AnalysisReport | None = None

    def _batches(self) -> Iterator[StreamBatch]:
        """Drive the simulation block by block, yielding after each.

        The caller folds every batch before asking for the next, so the
        simulation never runs ahead of detection by more than one block.
        """
        campaign = self.campaign
        for day in range(campaign.scenario.days):
            for _block in campaign.engine.iter_day_blocks(day):
                batch = self.tap.take()
                if batch is not None:
                    yield batch
        # The final sweep (finish + last poll + detail drain) lands the
        # tail of the data; yield it as the closing batch.
        self.result = campaign.finalize()
        batch = self.tap.take()
        if batch is not None:
            yield batch

    def run(self) -> tuple[CampaignResult, AnalysisReport]:
        """Collect and analyze in one pass; return the campaign and report."""
        fold_batches(
            self._batches(), self.detector, self.builder, self.on_delta
        )
        assert self.result is not None  # _batches() ran to completion
        report = self.builder.build(
            poll_overlap_fraction=self.result.coverage.overlap_fraction()
        )
        publish_detection_metrics(self.campaign.metrics, report)
        # Mirror the batch pipeline's duck-typed persistence so an
        # archive-backed streaming campaign leaves the same analysis
        # tables behind.
        recorder = getattr(self.campaign.store, "record_analysis", None)
        if recorder is not None:
            recorder(report)
        self.report = report
        return self.result, report
