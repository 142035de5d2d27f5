"""Incremental re-analysis: detect only what changed since the last pass.

A four-month campaign re-analyzed nightly should not re-run detection over
millions of already-judged bundles. :class:`IncrementalAnalyzer` keeps one
watermark in the archive's ``analysis_state`` table, the row keyed
``analysis``: the highest bundle ``seq`` already examined, the ids of
detection candidates still awaiting transaction details, and the canonical
:class:`~repro.core.detector.DetectorSpec` the stored analysis rows were
made with. Each pass:

1. refuses with :class:`~repro.errors.ConfigError` when its spec differs
   from the stamped one, before it reads or writes any analysis row —
   rows judged under another detector or threshold would otherwise slip
   silently into the report;
2. analyzes only bundles past the watermark, plus the still-pending ones,
   through one :class:`~repro.parallel.engine.ParallelAnalysisEngine`: the
   pending worklist is task 0 and the rows past the watermark are split
   into ``seq``-range chunk tasks, run in-process at ``jobs=1`` and
   folded back with the engine's deterministic reducer;
3. appends the new detections and classifications to the archive — or,
   when there is no watermark yet, replaces whatever analysis a full pass
   left behind;
4. rebuilds the full campaign-level report from archive rows — so the
   output covers the whole campaign even though detection work was
   proportional to the delta.

Detector statistics are merged across passes in the stored state, keeping
the reported totals equal to what one monolithic pass would have counted.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.archive.database import ArchiveDatabase
from repro.archive.store import ArchiveBundleStore
from repro.core.defensive import DefensiveReport
from repro.core.detector import DetectionStats, DetectorSpec
from repro.core.pipeline import AnalysisReport, assemble_report
from repro.core.quantify import QuantifiedSandwich
from repro.errors import ConfigError
from repro.obs.profile import StageProfile, StageTimer
from repro.obs.registry import MetricsRegistry
from repro.utils.serialization import decode_json, encode_json_sorted

#: The ``analysis_state`` key of the archive's one watermark row.
STATE_KEY = "analysis"


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


@dataclass
class _Delta:
    """One pass's analysis of the pending bundles and the rows past the
    watermark; ``quantified`` and ``defensive`` make it a report to
    :meth:`ArchiveBundleStore.record_analysis`."""

    quantified: list[QuantifiedSandwich]
    defensive: DefensiveReport
    stats: DetectionStats
    pending_ids: list[str]
    new_bundles: int
    high_seq: int


def _describe(stamp: dict | None) -> str:
    if stamp is None:
        return "none (state written before specs were stamped)"
    return encode_json_sorted(stamp)


class IncrementalAnalyzer:
    """Watermarked analysis over an archive database, under one spec.

    ``spec`` (default :class:`~repro.core.detector.DetectorSpec`) is the
    only description of the analysis stack; ``jobs``, ``chunk_size`` and
    ``engine`` configure the chunked engine and leave the stored rows
    byte-identical, so they are free to change between passes.
    """

    def __init__(
        self,
        database: ArchiveDatabase,
        metrics: MetricsRegistry | None = None,
        jobs: int = 1,
        chunk_size: int = 2_048,
        spec: DetectorSpec | None = None,
        engine: str = "object",
    ) -> None:
        from repro.parallel.engine import ParallelAnalysisEngine

        self.database = database
        # A writer facade over the same database: reuses the store's
        # insert statements and row metrics without loading memory state.
        self._writer = ArchiveBundleStore(database, metrics=metrics)
        self.metrics = self._writer.metrics
        self._engine = ParallelAnalysisEngine(
            database,
            jobs=jobs,
            chunk_size=chunk_size,
            spec=spec,
            metrics=self.metrics,
            engine=engine,
        )
        #: The spec every pass runs and is stamped with.
        self.spec = self._engine.spec
        self.query = self._engine.query
        self._runs_metric = self.metrics.counter(
            "archive_incremental_runs_total",
            "Incremental analysis passes over the archive.",
        )
        #: Wall-clock breakdown of the most recent pass: the chunked
        #: engine's stages plus ``merge`` and a ``rebuild`` row for the
        #: report rebuild.
        self.stage_profile = StageProfile(seconds={})

    # --- watermark state ---------------------------------------------------

    def load_state(self) -> dict:
        """The archive's watermark row (zeros when it never ran)."""
        row = self.database.connection.execute(
            "SELECT * FROM analysis_state WHERE consumer = ?", (STATE_KEY,)
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
            "state": decode_json(row["state"]),
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
                STATE_KEY,
                last_bundle_seq,
                last_detail_seq,
                sim_time,
                encode_json_sorted(state),
            ),
        )
        conn.commit()

    def _require_same_spec(self, state: dict) -> None:
        """Refuse to extend analysis stamped with another (or no) spec."""
        if not state["exists"]:
            return
        stored = state["state"].get("spec")
        wanted = self.spec.canonical()
        if stored != wanted:
            raise ConfigError(
                f"archive analysis was made with detector spec "
                f"{_describe(stored)}, but this pass uses "
                f"{_describe(wanted)}; a full (non-incremental) pass "
                "replaces the stored analysis"
            )

    # --- the pass ----------------------------------------------------------

    def _delta(self, state: dict) -> _Delta:
        """Analyze the delta through the chunked engine.

        The carried-over pending bundles become task 0 (an explicit
        worklist in stored order) and rows past the watermark become
        ``seq``-range chunk tasks 1..n — together the delta's working set
        in collection order.
        """
        from repro.parallel.chunks import ChunkTask
        from repro.parallel.merge import merge_outcomes

        engine = self._engine
        engine.stage_profile = self.stage_profile
        last_seq = int(state["last_bundle_seq"])
        chunks = self.query.chunk_plan(engine.chunk_size, seq_min=last_seq)
        tasks = []
        pending = tuple(state["state"].get("pending_ids", []))
        if pending:
            tasks.append(
                ChunkTask(
                    index=0,
                    spec=self.spec,
                    bundle_ids=pending,
                    engine=engine.engine,
                )
            )
        tasks.extend(engine.tasks_for_chunks(chunks, first_index=1))
        outcomes = engine.run_tasks(tasks)
        with StageTimer(self.stage_profile, "merge"):
            merged = merge_outcomes(
                outcomes, threshold_lamports=self.spec.threshold_lamports
            )
        return _Delta(
            quantified=merged.quantified,
            defensive=merged.defensive_report,
            stats=merged.stats,
            pending_ids=merged.pending_detail_ids,
            new_bundles=sum(chunk.count for chunk in chunks),
            high_seq=chunks[-1].seq_hi if chunks else last_seq,
        )

    @staticmethod
    def _totals(state: dict, stats: DetectionStats) -> DetectionStats:
        """Detector bookkeeping over every pass so far: the stored totals
        plus this pass's, as one monolithic pass would have counted."""
        totals = DetectionStats(**state["state"].get("stats", {}))
        totals.add(stats)
        # Every bundle carried over as pending was counted
        # skipped-incomplete last pass and re-fed this pass (where it is
        # either examined or counted skipped again); subtracting last
        # pass's count keeps totals equal to one monolithic run.
        totals.bundles_skipped_incomplete -= state["state"].get(
            "carried_skipped", 0
        )
        return totals

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

        Raises:
            ConfigError: when the archive's analysis was stamped with a
                different spec, or written before specs were stamped.
        """
        self.stage_profile = StageProfile(seconds={})
        with self.metrics.span("analysis.incremental"):
            state = self.load_state()
            self._require_same_spec(state)
            if self._is_no_op(state):
                # Zero new bundles and nothing carried over: rebuild the
                # report from what the archive already holds, write
                # nothing (no analysis rows, no watermark bump).
                report = self._build_report(
                    DetectionStats(**state["state"].get("stats", {}))
                )
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
            delta = self._delta(state)
            classified = delta.defensive.length_one_total
            if not state["exists"]:
                # No watermark: this pass covers the whole archive, so it
                # replaces any rows a full pass left under another spec.
                self._writer.record_analysis(delta)
            else:
                if delta.quantified:
                    self._writer.record_sandwiches(delta.quantified)
                if classified:
                    self._writer.record_defensive(delta.defensive)

            totals = self._totals(state, delta.stats)
            carried = len(delta.pending_ids)
            self._save_state(
                delta.high_seq,
                self.database.max_seq("transactions"),
                sim_time,
                {
                    "pending_ids": delta.pending_ids,
                    "stats": asdict(totals),
                    "carried_skipped": carried,
                    "spec": self.spec.canonical(),
                },
            )

            report = self._build_report(totals)
        self._runs_metric.inc()
        return IncrementalResult(
            report=report,
            new_bundles=delta.new_bundles,
            new_sandwiches=len(delta.quantified),
            new_classified=classified,
            pending_detail_bundles=carried,
        )

    def _build_report(self, stats: DetectionStats) -> AnalysisReport:
        """Assemble the campaign-wide report from archive rows."""
        with StageTimer(self.stage_profile, "rebuild"):
            return assemble_report(
                self.query.sandwiches(order_by="landed_at"),
                self.query.defensive_report(self.spec.threshold_lamports),
                stats,
                bundles_collected=self.query.count_bundles(),
                oracle=self._engine.oracle,
            )
