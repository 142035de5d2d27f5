"""The end-to-end analysis pipeline.

Takes what the collector gathered (the :class:`BundleStore`, plus optional
coverage stats) and produces everything the paper's Section 4 reports:
detected sandwiches, quantified losses, defensive classification, daily
series, and headline statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collector.campaign import CampaignResult
from repro.collector.store import BundleStore
from repro.core.aggregate import (
    DailySandwichStats,
    HeadlineStats,
    headline_stats,
    sandwiches_per_day,
)
from repro.core.defensive import DefensiveReport
from repro.core.detector import DetectionStats, DetectorSpec
from repro.core.quantify import LossQuantifier, QuantifiedSandwich
from repro.dex.oracle import PriceOracle
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry


@dataclass
class AnalysisReport:
    """All pipeline outputs for one campaign."""

    quantified: list[QuantifiedSandwich]
    defensive: DefensiveReport
    daily: dict[str, DailySandwichStats]
    headline: HeadlineStats
    detection_stats: DetectionStats

    @property
    def sandwich_count(self) -> int:
        """Number of detected sandwiches."""
        return len(self.quantified)


def assemble_report(
    quantified: list[QuantifiedSandwich],
    defensive: DefensiveReport,
    stats: DetectionStats,
    bundles_collected: int,
    oracle: PriceOracle,
    poll_overlap_fraction: float | None = None,
) -> AnalysisReport:
    """The campaign report over finished detection and classification.

    The one report assembler: the in-memory pipeline, the chunked engine,
    the incremental analyzer and the streaming builder each hand it their
    quantified sandwiches (in ``landed_at`` order), defensive report and
    detector tallies, and it derives the daily series and the headline.
    """
    return AnalysisReport(
        quantified=quantified,
        defensive=defensive,
        daily=sandwiches_per_day(quantified, oracle),
        headline=headline_stats(
            quantified,
            defensive,
            bundles_collected=bundles_collected,
            oracle=oracle,
            poll_overlap_fraction=poll_overlap_fraction,
        ),
        detection_stats=stats,
    )


def publish_detection_metrics(
    metrics: MetricsRegistry, report: AnalysisReport
) -> None:
    """Count one report's detection tallies into ``metrics``.

    The campaign report's "Pipeline health" section reads these
    ``detector_*``/``defensive_*`` counters; the serial pipeline and the
    streaming campaign both publish them from their finished report, so
    the section reads the same for either path.
    """
    stats = report.detection_stats
    metrics.counter(
        "detector_bundles_examined_total",
        "Bundles evaluated against the five criteria.",
    ).inc(stats.bundles_examined)
    metrics.counter(
        "detector_sandwiches_total", "Bundles confirmed as sandwiches."
    ).inc(len(report.quantified))
    rejections = metrics.counter(
        "detector_rejections_total",
        "Bundles rejected during detection, by failing criterion.",
    )
    for criterion, count in sorted(stats.rejections_by_criterion.items()):
        if count:
            rejections.inc(count, criterion=criterion)
    defensive = metrics.counter(
        "defensive_bundles_total",
        "Length-one bundles classified, defensive vs priority.",
    )
    defensive.inc(
        len(report.defensive.defensive_ids), classification="defensive"
    )
    defensive.inc(
        len(report.defensive.priority_ids), classification="priority"
    )


class AnalysisPipeline:
    """Detector + quantifier + defensive classifier + aggregation.

    The differential oracle's serial reference: it detects, quantifies
    and classifies a whole store itself, with a fresh detector and
    classifier built from ``spec`` for every :meth:`analyze_store`, so
    each report owns its tallies.
    """

    def __init__(
        self,
        spec: DetectorSpec | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.spec = spec or DetectorSpec()
        self.spec.validate()
        self.oracle = self.spec.build_oracle()
        self.quantifier = LossQuantifier(self.oracle)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY

    def analyze_store(
        self,
        store: BundleStore,
        poll_overlap_fraction: float | None = None,
    ) -> AnalysisReport:
        """Run the full analysis over a collected store."""
        detector = self.spec.build_detector()
        events = detector.detect_all(store)
        report = assemble_report(
            self.quantifier.quantify_all(events),
            self.spec.build_classifier().classify(store),
            detector.stats,
            bundles_collected=len(store),
            oracle=self.oracle,
            poll_overlap_fraction=poll_overlap_fraction,
        )
        publish_detection_metrics(self.metrics, report)
        # Archive-backed stores persist detections; duck-typed so this
        # module never imports repro.archive (which imports repro.core).
        recorder = getattr(store, "record_analysis", None)
        if recorder is not None:
            recorder(report)
        return report

    def analyze_campaign(self, result: CampaignResult) -> AnalysisReport:
        """Analyze a finished measurement campaign.

        When the pipeline was built without its own registry, the campaign's
        registry is adopted so detection metrics land in the same snapshot
        as collection metrics.
        """
        if self.metrics is NULL_REGISTRY and result.metrics.enabled:
            self.metrics = result.metrics
        return self.analyze_store(
            result.store,
            poll_overlap_fraction=result.coverage.overlap_fraction(),
        )
