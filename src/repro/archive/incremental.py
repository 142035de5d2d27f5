"""Incremental re-analysis: detect only what changed since the last pass.

A four-month campaign re-analyzed nightly should not re-run detection over
millions of already-judged bundles. :class:`IncrementalAnalyzer` keeps a
watermark per consumer in the archive's ``analysis_state`` table (the
highest bundle ``seq`` already examined, plus the ids of length-three
bundles still awaiting transaction details) and each pass:

1. loads only bundles past the watermark, plus the still-pending ones,
2. runs the unchanged detector/quantifier/classifier over that slice,
3. appends the new detections and classifications to the archive,
4. rebuilds the full campaign-level report from archive rows — so the
   output covers the whole campaign even though detection work was
   proportional to the delta.

Detector statistics are merged across passes in the stored state, keeping
the reported totals equal to what one monolithic pass would have counted.

With ``jobs > 1`` the delta itself is sharded: the carried-over pending
bundles form one explicit worklist task and the rows past the watermark are
split into ``seq``-range chunks, all executed by
:class:`repro.parallel.engine.ParallelAnalysisEngine` and folded back with
its deterministic reducer — the stored state and rebuilt report are
identical to a serial pass over the same delta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.archive.database import ArchiveDatabase
from repro.archive.query import ArchiveQuery
from repro.archive.store import ArchiveBundleStore
from repro.collector.store import BundleStore
from repro.core.aggregate import headline_stats, sandwiches_per_day
from repro.core.defensive import DefensiveBundlingClassifier, DefensiveReport
from repro.core.detector import DetectionStats, SandwichDetector
from repro.core.pipeline import AnalysisReport
from repro.core.quantify import LossQuantifier
from repro.dex.oracle import PriceOracle
from repro.errors import ConfigError
from repro.explorer.models import BundleRecord
from repro.obs.registry import MetricsRegistry
from repro.pipeline.profile import StageProfile, StageTimer

if TYPE_CHECKING:  # deferred: repro.parallel imports repro.archive
    from repro.parallel.chunks import DetectorSpec


@dataclass
class IncrementalResult:
    """One incremental pass: the full rebuilt report plus delta counts."""

    report: AnalysisReport
    new_bundles: int
    new_sandwiches: int
    new_classified: int
    pending_detail_bundles: int
    #: True when the pass found nothing past the watermark and touched
    #: neither the archive's analysis tables nor the watermark row.
    no_op: bool = False


class IncrementalAnalyzer:
    """Watermarked analysis over an archive database.

    Each named ``consumer`` owns an independent watermark, so e.g. a
    nightly detection job and an ad-hoc re-measurement can progress
    separately over the same archive.
    """

    def __init__(
        self,
        database: ArchiveDatabase,
        consumer: str = "analysis",
        oracle: PriceOracle | None = None,
        detector_factory: Callable[[], SandwichDetector] | None = None,
        classifier: DefensiveBundlingClassifier | None = None,
        metrics: MetricsRegistry | None = None,
        jobs: int = 1,
        chunk_size: int = 2_048,
        spec: DetectorSpec | None = None,
        engine: str = "object",
        prefetch: int | None = None,
    ) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if engine not in {"object", "columnar"}:
            raise ConfigError(
                f"engine must be object or columnar, got {engine!r}"
            )
        self.database = database
        self.consumer = consumer
        self.oracle = oracle or PriceOracle()
        # Live factories cannot cross a process boundary; parallel passes
        # describe the stack with a picklable spec instead.
        self._custom_stack = (
            detector_factory is not None or classifier is not None
        )
        self.detector_factory = detector_factory or SandwichDetector
        self.classifier = classifier or DefensiveBundlingClassifier()
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.spec = spec
        self.engine = engine
        self.prefetch = prefetch
        self.quantifier = LossQuantifier(self.oracle)
        self.query = ArchiveQuery(database, metrics=metrics)
        # A writer facade over the same database: reuses the store's
        # insert statements and row metrics without loading memory state.
        self._writer = ArchiveBundleStore(database, metrics=metrics)
        self.metrics = self._writer.metrics
        self._runs_metric = self.metrics.counter(
            "archive_incremental_runs_total",
            "Incremental analysis passes over the archive.",
        )
        #: Wall-clock breakdown of the most recent pass: the chunked
        #: engine's stages (or one ``delta`` row for the serial object
        #: path) plus a ``rebuild`` row for the report rebuild.
        self.stage_profile = StageProfile(seconds={})

    # --- watermark state ---------------------------------------------------

    def load_state(self) -> dict:
        """The consumer's watermark row (zeros when it never ran)."""
        row = self.database.connection.execute(
            "SELECT * FROM analysis_state WHERE consumer = ?",
            (self.consumer,),
        ).fetchone()
        if row is None:
            return {
                "exists": False,
                "last_bundle_seq": 0,
                "last_detail_seq": 0,
                "updated_sim_time": 0.0,
                "state": {"pending_ids": [], "stats": {}},
            }
        return {
            "exists": True,
            "last_bundle_seq": row["last_bundle_seq"],
            "last_detail_seq": row["last_detail_seq"],
            "updated_sim_time": row["updated_sim_time"],
            "state": json.loads(row["state"]),
        }

    def _save_state(
        self,
        last_bundle_seq: int,
        last_detail_seq: int,
        sim_time: float,
        state: dict,
    ) -> None:
        conn = self.database.connection
        conn.execute(
            "INSERT OR REPLACE INTO analysis_state "
            "(consumer, last_bundle_seq, last_detail_seq, "
            "updated_sim_time, state) VALUES (?,?,?,?,?)",
            (
                self.consumer,
                last_bundle_seq,
                last_detail_seq,
                sim_time,
                json.dumps(state, sort_keys=True),
            ),
        )
        conn.commit()

    # --- the pass ----------------------------------------------------------

    def _slice_store(
        self, state: dict, detail_lengths: tuple[int, ...] = (3,)
    ) -> tuple[BundleStore, list[BundleRecord], int]:
        """The working set: pending bundles plus everything past the mark.

        Returns the mini in-memory store, the new bundles, and the new
        high-water ``seq``. ``detail_lengths`` names the bundle lengths the
        detector will want transaction details for (``(3,)`` for the
        standard detector, the window lengths for the windowed one).
        """
        last_seq = int(state["last_bundle_seq"])
        high_seq = max(last_seq, self.database.max_seq("bundles"))
        new_bundles = self.query.bundle_range(last_seq + 1, high_seq)
        mini = BundleStore()
        pending: list[BundleRecord] = []
        for bundle_id in state["state"].get("pending_ids", []):
            bundle = self.query.bundle(bundle_id)
            if bundle is not None:
                pending.append(bundle)
        mini.add_bundles(pending)
        mini.add_bundles(new_bundles)
        # Pull whatever details exist for each detection candidate.
        for length in detail_lengths:
            for bundle in mini.bundles_of_length(length):
                mini.add_details(self.query.details_for_bundle(bundle))
        return mini, new_bundles, high_seq

    def _serial_delta(
        self, state: dict
    ) -> tuple[list, DefensiveReport, DetectionStats, list[str], int, int]:
        """Analyze the delta in-process (the ``jobs=1`` path)."""
        detector = self.detector_factory()
        detail_lengths = tuple(getattr(detector, "lengths", (3,)))
        mini, new_bundles, high_seq = self._slice_store(
            state, detail_lengths=detail_lengths
        )
        events = detector.detect_all(mini)
        quantified = self.quantifier.quantify_all(events)
        classification = self.classifier.classify(mini)
        wanted = set(detail_lengths)
        pending_ids = [
            bundle.bundle_id
            for bundle in mini.bundles()
            if bundle.num_transactions in wanted
            and mini.missing_details(bundle)
        ]
        return (
            quantified,
            classification,
            detector.stats,
            pending_ids,
            len(new_bundles),
            high_seq,
        )

    def _parallel_delta(
        self, state: dict
    ) -> tuple[list, DefensiveReport, DetectionStats, list[str], int, int]:
        """Shard the delta across the parallel engine's worker pool.

        The carried-over pending bundles become task 0 (an explicit
        worklist in stored order) and rows past the watermark become
        ``seq``-range chunk tasks — together exactly the serial working
        set, in the same collection order.
        """
        from repro.parallel.chunks import ChunkTask, DetectorSpec
        from repro.parallel.engine import ParallelAnalysisEngine
        from repro.parallel.merge import merge_outcomes

        spec = self.spec
        if spec is None:
            if self._custom_stack:
                raise ConfigError(
                    "parallel incremental analysis cannot ship a live "
                    "detector_factory/classifier to workers; describe the "
                    "stack with a DetectorSpec instead"
                )
            spec = DetectorSpec()
        engine_kwargs = (
            {} if self.prefetch is None else {"prefetch": self.prefetch}
        )
        engine = ParallelAnalysisEngine(
            self.database,
            jobs=self.jobs,
            chunk_size=self.chunk_size,
            spec=spec,
            oracle=self.oracle,
            metrics=self.metrics,
            engine=self.engine,
            **engine_kwargs,
        )
        last_seq = int(state["last_bundle_seq"])
        chunks = list(
            engine.query.iter_chunks(
                chunk_size=self.chunk_size, seq_min=last_seq
            )
        )
        tasks = []
        pending = tuple(state["state"].get("pending_ids", []))
        if pending:
            tasks.append(
                ChunkTask(
                    index=0,
                    archive_path=str(self.database.path),
                    spec=engine.spec,
                    bundle_ids=pending,
                    engine=self.engine,
                )
            )
        tasks.extend(engine.tasks_for_chunks(chunks, first_index=1))
        outcomes = engine.run_tasks(tasks)
        self.stage_profile = engine.stage_profile
        with StageTimer(self.stage_profile, "merge"):
            merged = merge_outcomes(
                outcomes, threshold_lamports=engine.spec.threshold_lamports
            )
        high_seq = chunks[-1].seq_hi if chunks else last_seq
        return (
            merged.quantified,
            merged.defensive_report,
            merged.stats,
            list(merged.pending_detail_ids),
            sum(chunk.count for chunk in chunks),
            high_seq,
        )

    def _merge_stats(self, accumulated: dict, stats: DetectionStats) -> dict:
        merged = dict(accumulated)
        merged["bundles_examined"] = (
            merged.get("bundles_examined", 0) + stats.bundles_examined
        )
        merged["bundles_detected"] = (
            merged.get("bundles_detected", 0) + stats.bundles_detected
        )
        merged["bundles_skipped_incomplete"] = (
            merged.get("bundles_skipped_incomplete", 0)
            + stats.bundles_skipped_incomplete
        )
        rejections = dict(merged.get("rejections_by_criterion", {}))
        for criterion, count in stats.rejections_by_criterion.items():
            rejections[criterion] = rejections.get(criterion, 0) + count
        merged["rejections_by_criterion"] = rejections
        return merged

    def _is_no_op(self, state: dict) -> bool:
        """Whether a pass over ``state`` would find nothing to analyze.

        Requires an existing watermark (a first pass must establish state
        even over an empty archive) and no bundle rows past the mark.
        Carried-over pending bundles only force a pass when new
        transaction details have landed since — without fresh details a
        re-feed would count each pending bundle skipped again and subtract
        the same amount via ``carried_skipped``, a provable wash.
        """
        if not state["exists"]:
            return False
        if self.database.max_seq("bundles") > int(state["last_bundle_seq"]):
            return False
        if state["state"].get("pending_ids", []):
            return (
                self.database.max_seq("transactions")
                <= int(state["last_detail_seq"])
            )
        return True

    def analyze(self, sim_time: float = 0.0) -> IncrementalResult:
        """Run one incremental pass and rebuild the full report.

        ``sim_time`` stamps the watermark row (pass the campaign clock when
        available; defaults keep standalone use simple).
        """
        self.stage_profile = StageProfile(seconds={})
        with self.metrics.span("analysis.incremental"):
            state = self.load_state()
            if self._is_no_op(state):
                # Zero new bundles and nothing carried over: rebuild the
                # report from what the archive already holds, write
                # nothing (no analysis rows, no watermark bump).
                report = self._build_report(state["state"].get("stats", {}))
                self.metrics.counter(
                    "archive_incremental_noop_total",
                    "Incremental passes that found nothing new.",
                ).inc()
                self._runs_metric.inc()
                return IncrementalResult(
                    report=report,
                    new_bundles=0,
                    new_sandwiches=0,
                    new_classified=0,
                    pending_detail_bundles=len(
                        state["state"].get("pending_ids", [])
                    ),
                    no_op=True,
                )
            if self.jobs > 1 or self.engine == "columnar":
                # The columnar path always routes through the chunked
                # delta — at jobs=1 it runs in-process, just vectorized.
                delta = self._parallel_delta(state)
            else:
                with StageTimer(self.stage_profile, "delta"):
                    delta = self._serial_delta(state)
            quantified, classification, stats, pending_ids = delta[:4]
            new_bundles, high_seq = delta[4:]

            if quantified:
                self._writer.record_sandwiches(quantified)
            classified = classification.length_one_total
            if classified:
                self._writer.record_defensive(classification)

            merged_stats = self._merge_stats(
                state["state"].get("stats", {}), stats
            )
            # Every bundle carried over as pending was counted
            # skipped-incomplete last pass and re-fed this pass (where it
            # is either examined or counted skipped again); subtracting
            # last pass's count keeps totals equal to one monolithic run.
            merged_stats["bundles_skipped_incomplete"] -= state["state"].get(
                "carried_skipped", 0
            )
            carried = len(pending_ids)
            self._save_state(
                high_seq,
                self.database.max_seq("transactions"),
                sim_time,
                {
                    "pending_ids": pending_ids,
                    "stats": merged_stats,
                    "carried_skipped": carried,
                },
            )

            report = self._build_report(merged_stats)
        self._runs_metric.inc()
        return IncrementalResult(
            report=report,
            new_bundles=new_bundles,
            new_sandwiches=len(quantified),
            new_classified=classified,
            pending_detail_bundles=carried,
        )

    def _build_report(self, merged_stats: dict) -> AnalysisReport:
        """Assemble the campaign-wide report from archive rows."""
        with StageTimer(self.stage_profile, "rebuild"):
            all_quantified = self.query.sandwiches(order_by="landed_at")
            defensive_report = self.query.defensive_report(
                self.classifier.threshold_lamports
            )
            daily = sandwiches_per_day(all_quantified, self.oracle)
            headline = headline_stats(
                all_quantified,
                defensive_report,
                bundles_collected=self.query.count_bundles(),
                oracle=self.oracle,
            )
            stats = DetectionStats(
                bundles_examined=merged_stats.get("bundles_examined", 0),
                bundles_detected=merged_stats.get("bundles_detected", 0),
                bundles_skipped_incomplete=merged_stats.get(
                    "bundles_skipped_incomplete", 0
                ),
                rejections_by_criterion=dict(
                    merged_stats.get("rejections_by_criterion", {})
                ),
            )
            return AnalysisReport(
                quantified=all_quantified,
                defensive=defensive_report,
                daily=daily,
                headline=headline,
                detection_stats=stats,
            )
