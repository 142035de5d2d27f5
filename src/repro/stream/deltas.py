"""Monotone report deltas and the incremental report builder.

The streaming detector judges each detection candidate exactly once and
emits the verdicts as :class:`ReportDelta` messages whose counters only
ever grow. :class:`IncrementalReportBuilder` folds the deltas as they
arrive, so the moment the final delta lands the full report is one
(cheap) merge away — there is no end-of-campaign detection pass at all.

Byte-identity with the batch path is inherited, not re-proven: the
detector judges every candidate into a single-candidate
:class:`~repro.parallel.worker.ChunkOutcome` indexed in candidate
(collection) order, and the builder hands them unchanged to the parallel
tier's :func:`~repro.parallel.merge.merge_outcomes` — the same
deterministic reducer that already guarantees sharded analysis is
byte-identical to serial. A trailing outcome carries the defensive
classification and the campaign bundle count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.detector import DetectionStats, DetectorSpec
from repro.core.pipeline import AnalysisReport, assemble_report
from repro.errors import ConformanceError
from repro.parallel.merge import merge_outcomes
from repro.parallel.worker import ChunkOutcome


@dataclass(frozen=True)
class ReportDelta:
    """One ingest step's newly judged work plus cumulative progress.

    ``verdicts`` holds one single-candidate outcome per newly judged
    candidate: its stats, its priced sandwich if it was one, and its
    bundle id as pending when its details never arrived. The newly
    classified length-one bundles travel as ids, with the defensive tip
    total and ``(date, count)`` pairs they add. The cumulative counters
    are monotone by construction — each delta's values are >= its
    predecessor's — so any consumer (a progress line, a live dashboard)
    can render the latest delta alone without replaying history.
    """

    verdicts: tuple[ChunkOutcome, ...] = ()
    new_defensive: tuple[str, ...] = ()
    new_priority: tuple[str, ...] = ()
    new_defensive_tips_lamports: int = 0
    new_defensive_by_day: tuple[tuple[str, int], ...] = ()
    bundles_seen: int = 0
    candidates_registered: int = 0
    candidates_judged: int = 0
    sandwiches: int = 0
    final: bool = False


class IncrementalReportBuilder:
    """Folds report deltas into the final campaign report.

    ``apply`` is cheap (list appends and counter updates); ``build``
    performs the single deterministic merge. The builder never inspects
    bundle contents — everything report-shaped was already decided by the
    streaming detector.
    """

    def __init__(self, spec: DetectorSpec | None = None) -> None:
        self.spec = spec or DetectorSpec()
        self.oracle = self.spec.build_oracle()
        self._verdicts: dict[int, ChunkOutcome] = {}
        self._defensive: list[str] = []
        self._priority: list[str] = []
        self._defensive_tips = 0
        self._defensive_by_day: dict[str, int] = {}
        self.bundles_seen = 0
        self.candidates_registered = 0
        self.sandwiches = 0
        self.deltas_applied = 0
        self.finalized = False

    def apply(self, delta: ReportDelta) -> None:
        """Fold one delta; duplicate candidate verdicts fail loudly."""
        for verdict in delta.verdicts:
            if verdict.index in self._verdicts:
                raise ConformanceError(
                    f"candidate {verdict.index} judged twice; the stream "
                    "would double-count its stats"
                )
            self._verdicts[verdict.index] = verdict
        self._defensive.extend(delta.new_defensive)
        self._priority.extend(delta.new_priority)
        self._defensive_tips += delta.new_defensive_tips_lamports
        by_day = self._defensive_by_day
        for date, count in delta.new_defensive_by_day:
            by_day[date] = by_day.get(date, 0) + count
        self.bundles_seen = max(self.bundles_seen, delta.bundles_seen)
        self.candidates_registered = max(
            self.candidates_registered, delta.candidates_registered
        )
        self.sandwiches = max(self.sandwiches, delta.sandwiches)
        self.deltas_applied += 1
        if delta.final:
            self.finalized = True

    @property
    def candidates_judged(self) -> int:
        """Candidates folded so far."""
        return len(self._verdicts)

    def build(
        self, poll_overlap_fraction: float | None = None
    ) -> AnalysisReport:
        """Merge every folded verdict into the campaign report.

        The output is byte-identical (per
        :func:`repro.parallel.merge.report_bytes`) to
        ``AnalysisPipeline().analyze_store(store)`` over the same
        collected store: candidate outcomes are contiguous in collection
        order, the trailing outcome carries the classifier's output in
        arrival order, and ``merge_outcomes`` restores the serial sort
        and stats-accumulation order.
        """
        outcomes = list(self._verdicts.values())
        outcomes.append(
            ChunkOutcome(
                index=len(outcomes),
                quantified=(),
                stats=DetectionStats(),
                pending_detail_ids=(),
                bundle_count=self.bundles_seen,
                defensive=tuple(self._defensive),
                priority=tuple(self._priority),
                defensive_tips_lamports=self._defensive_tips,
                defensive_by_day=tuple(self._defensive_by_day.items()),
            )
        )
        merged = merge_outcomes(
            outcomes, threshold_lamports=self.spec.threshold_lamports
        )
        return assemble_report(
            merged.quantified,
            merged.defensive_report,
            merged.stats,
            bundles_collected=merged.bundle_count,
            oracle=self.oracle,
            poll_overlap_fraction=poll_overlap_fraction,
        )
