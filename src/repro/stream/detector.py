"""The streaming detector: judge candidates as their details land.

Consumes :class:`~repro.stream.events.StreamBatch` messages and produces
:class:`~repro.stream.deltas.ReportDelta` messages. The design invariant
that makes streaming byte-identical to batch analysis:

- every bundle of a detection length becomes a *candidate* with a
  monotonically increasing index — candidate order is store insertion
  order, the exact order ``detect_all`` iterates;
- a candidate is judged exactly once, by a **fresh detector** built from
  the shared :class:`~repro.core.detector.DetectorSpec`, the moment its
  transaction details are complete (or at finalize if they never are),
  into a single-candidate :class:`~repro.parallel.worker.ChunkOutcome` —
  the fresh detector's stats are precisely the candidate's contribution
  to a monolithic pass's bookkeeping;
- length-one bundles are classified on arrival, in arrival order — the
  order ``DefensiveBundlingClassifier.classify`` iterates.

An ingest step judges exactly the candidates the batch completed, in
index order: the ``tx → candidate`` map says which candidate each
arriving detail belongs to, so no other candidate is ever revisited.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.defensive import DefensiveReport
from repro.core.detector import DetectorSpec
from repro.core.quantify import LossQuantifier, QuantifiedSandwich
from repro.explorer.models import BundleRecord, TransactionRecord
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.parallel.worker import ChunkOutcome
from repro.stream.deltas import ReportDelta
from repro.stream.events import StreamBatch


@dataclass
class _Candidate:
    """One unjudged detection candidate and the details it still needs."""

    index: int
    bundle: BundleRecord
    missing: set[str]


class StreamingDetector:
    """Online sandwich detection over a stream of collected records.

    The detector doubles as the detail-lookup object handed to
    ``SandwichDetector.detect_bundle`` (it exposes :meth:`get_detail`),
    so judging a candidate runs the unchanged batch detection code
    against the stream's accumulated details.
    """

    def __init__(
        self,
        spec: DetectorSpec | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.spec = spec or DetectorSpec()
        self.spec.validate()
        self.oracle = self.spec.build_oracle()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._quantifier = LossQuantifier(self.oracle)
        self._classifier = self.spec.build_classifier()
        self._wanted = set(self.spec.detail_lengths)
        self._details: dict[str, TransactionRecord] = {}
        self._tx_to_candidate: dict[str, int] = {}
        self._candidates: dict[int, _Candidate] = {}
        self.bundles_seen = 0
        self.candidates_registered = 0
        self.candidates_judged = 0
        self.sandwiches = 0
        self._ingested_metric = self.metrics.counter(
            "stream_bundles_ingested_total",
            "Bundles the streaming detector has consumed.",
        )
        self._judged_metric = self.metrics.counter(
            "stream_candidates_judged_total",
            "Detection candidates judged, by completeness.",
        )
        self._lag_gauge = self.metrics.gauge(
            "stream_detector_lag_candidates",
            "Registered candidates still awaiting judgement.",
        )

    # --- detail lookup (the store protocol detect_bundle needs) ------------

    def get_detail(self, tx_id: str) -> TransactionRecord | None:
        """Resolve a transaction detail from the stream's accumulation."""
        return self._details.get(tx_id)

    # --- ingest ------------------------------------------------------------

    def ingest(self, batch: StreamBatch) -> ReportDelta:
        """Consume one batch; judge the candidates it completed."""
        classified = self._classifier.classify_records(batch.bundles)
        completed: set[int] = set()
        for bundle in batch.bundles:
            self.bundles_seen += 1
            self._ingested_metric.inc()
            if bundle.num_transactions in self._wanted:
                candidate = self._register(bundle)
                if not candidate.missing:
                    completed.add(candidate.index)
        for record in batch.details:
            if record.transaction_id not in self._details:
                self._details[record.transaction_id] = record
            index = self._tx_to_candidate.get(record.transaction_id)
            if index is not None:
                candidate = self._candidates.get(index)
                if candidate is not None:
                    candidate.missing.discard(record.transaction_id)
                    if not candidate.missing:
                        completed.add(index)
        verdicts = [
            self._judge(self._candidates[index], pending=False)
            for index in sorted(completed)
        ]
        return self._delta(verdicts, classified)

    def _register(self, bundle: BundleRecord) -> _Candidate:
        index = self.candidates_registered
        self.candidates_registered += 1
        missing = {
            tx_id
            for tx_id in bundle.transaction_ids
            if tx_id not in self._details
        }
        candidate = _Candidate(index=index, bundle=bundle, missing=missing)
        self._candidates[index] = candidate
        for tx_id in bundle.transaction_ids:
            self._tx_to_candidate[tx_id] = index
        return candidate

    def _judge(self, candidate: _Candidate, pending: bool) -> ChunkOutcome:
        """Run the batch detection stack over one candidate, once.

        A fresh per-candidate detector captures exactly the stats a
        monolithic detector would have accumulated for this bundle —
        including multi-window examinations (windowed kind) and the
        one-increment skipped-incomplete bookkeeping for bundles whose
        details never arrived.
        """
        detector = self.spec.build_detector()
        event = detector.detect_bundle(candidate.bundle, self)
        quantified: tuple[QuantifiedSandwich, ...] = ()
        if event is not None:
            quantified = (self._quantifier.quantify(event),)
            self.sandwiches += 1
        self.candidates_judged += 1
        self._judged_metric.inc(
            status="pending" if pending else "complete"
        )
        self._lag_gauge.set(
            self.candidates_registered - self.candidates_judged
        )
        del self._candidates[candidate.index]
        for tx_id in candidate.bundle.transaction_ids:
            if self._tx_to_candidate.get(tx_id) == candidate.index:
                del self._tx_to_candidate[tx_id]
        return ChunkOutcome(
            index=candidate.index,
            quantified=quantified,
            stats=detector.stats,
            pending_detail_ids=(
                (candidate.bundle.bundle_id,) if pending else ()
            ),
        )

    def finalize(self) -> ReportDelta:
        """Judge every still-unjudged candidate; emit the final delta.

        Candidates with missing details get the batch path's treatment:
        examined, counted skipped-incomplete, carried as pending. After
        this the stream's cumulative verdict set covers every candidate
        index exactly once.
        """
        verdicts: list[ChunkOutcome] = []
        for index in sorted(self._candidates):
            candidate = self._candidates[index]
            verdicts.append(
                self._judge(candidate, pending=bool(candidate.missing))
            )
        nothing = DefensiveReport(self.spec.threshold_lamports)
        return self._delta(verdicts, nothing, final=True)

    def _delta(
        self,
        verdicts: list[ChunkOutcome],
        classified: DefensiveReport,
        final: bool = False,
    ) -> ReportDelta:
        return ReportDelta(
            verdicts=tuple(verdicts),
            new_defensive=tuple(classified.defensive_ids),
            new_priority=tuple(classified.priority_ids),
            new_defensive_tips_lamports=classified.defensive_tips_lamports,
            new_defensive_by_day=tuple(classified.defensive_by_day.items()),
            bundles_seen=self.bundles_seen,
            candidates_registered=self.candidates_registered,
            candidates_judged=self.candidates_judged,
            sandwiches=self.sandwiches,
            final=final,
        )
