"""The deterministic, order-independent reducer.

Chunks complete in whatever order the pool schedules them; the reducer
first restores chunk order (each outcome carries its plan ``index``), then
folds the per-chunk lists together. Determinism rests on two invariants:

1. every chunk is analyzed in collection (``seq``) order internally, and
   chunk ``index`` order equals ``seq`` order across chunks — so the
   concatenation of per-chunk lists equals the serial pass's pre-sort
   order; and
2. the only sort applied afterwards (events by ``landed_at``) is stable,
   so ties resolve by that same collection order, exactly as they do in
   :meth:`SandwichDetector.detect_all`.

Together these make the merged quantified list, defensive report, and
detection stats byte-identical to a single-threaded pass.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.core.defensive import DefensiveReport
from repro.core.detector import DetectionStats
from repro.core.pipeline import AnalysisReport
from repro.core.quantify import QuantifiedSandwich
from repro.errors import ConformanceError
from repro.parallel.worker import ChunkOutcome


@dataclass
class MergedAnalysis:
    """The reducer's output: campaign-wide analysis inputs."""

    quantified: list[QuantifiedSandwich] = field(default_factory=list)
    defensive_report: DefensiveReport = None  # type: ignore[assignment]
    stats: DetectionStats = field(default_factory=DetectionStats)
    pending_detail_ids: list[str] = field(default_factory=list)
    bundle_count: int = 0


def merge_outcomes(
    outcomes: list[ChunkOutcome], threshold_lamports: int
) -> MergedAnalysis:
    """Fold chunk outcomes into campaign-wide analysis results.

    Raises:
        ConformanceError: when the outcomes' plan indexes are not
            contiguous — a duplicated or dropped chunk would silently
            break the byte-identity guarantee, so it fails loudly
            instead. (The sequence need not start at 0: incremental
            deltas reserve index 0 for the pending-detail worklist and
            omit it when that worklist is empty.)
    """
    ordered = sorted(outcomes, key=lambda outcome: outcome.index)
    indexes = [outcome.index for outcome in ordered]
    start = indexes[0] if indexes else 0
    expected = list(range(start, start + len(indexes)))
    if indexes != expected:
        raise ConformanceError(
            "merge received a broken chunk sequence (expected contiguous "
            f"indexes {expected}, got {indexes}); a duplicated or "
            "dropped chunk would corrupt the deterministic merge",
            diff={"expected": expected, "actual": indexes},
        )
    quantified: list[QuantifiedSandwich] = []
    report = DefensiveReport(threshold_lamports=threshold_lamports)
    by_day: dict[str, int] = {}
    stats = DetectionStats()
    pending: list[str] = []
    bundles = 0
    for outcome in ordered:
        quantified.extend(outcome.quantified)
        stats.add(outcome.stats)
        report.defensive_ids.extend(outcome.defensive)
        report.priority_ids.extend(outcome.priority)
        report.defensive_tips_lamports += outcome.defensive_tips_lamports
        for date, count in outcome.defensive_by_day:
            by_day[date] = by_day.get(date, 0) + count
        pending.extend(outcome.pending_detail_ids)
        bundles += outcome.bundle_count
    report.defensive_by_day = dict(sorted(by_day.items()))
    # Stable: ties keep collection order, matching the serial detector.
    quantified.sort(key=lambda item: item.event.landed_at)
    return MergedAnalysis(
        quantified=quantified,
        defensive_report=report,
        stats=stats,
        pending_detail_ids=pending,
        bundle_count=bundles,
    )


def report_to_jsonable(report: AnalysisReport) -> dict:
    """A canonical JSON-able form of a report, for byte-identity checks.

    Every nested dataclass is flattened with :func:`dataclasses.asdict`;
    serializing the result with ``json.dumps(..., sort_keys=True)`` yields
    a stable byte string two runs can be compared on.
    """
    return {
        "quantified": [asdict(item) for item in report.quantified],
        "defensive": asdict(report.defensive),
        "daily": {date: asdict(day) for date, day in report.daily.items()},
        "headline": asdict(report.headline),
        "detection_stats": asdict(report.detection_stats),
    }


def report_bytes(report: AnalysisReport) -> bytes:
    """The canonical serialized report (the byte-identity artifact)."""
    return json.dumps(
        report_to_jsonable(report), sort_keys=True, separators=(",", ":")
    ).encode()
