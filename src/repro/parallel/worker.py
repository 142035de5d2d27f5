"""Per-chunk analysis, split into a load stage and a compute stage.

Every chunk's work is split at the I/O boundary into a *load* stage
(:func:`load_task`, all SQLite round-trips) and a *compute* stage
(:func:`compute_task`, pure in-memory detection); the task's ``engine``
picks the object or the columnar implementation of each. Every caller runs
chunks through :func:`iter_batch_outcomes`, which loads and then computes
each chunk in turn on one connection, on the calling thread. The
``jobs=1`` engine calls it on its own connection; under ``--jobs`` each
pool worker runs :func:`run_chunk_batch` once, over its round-robin share
of the tasks, on the read-only connection its pool initializer opened.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.archive.database import ArchiveDatabase
from repro.archive.query import ArchiveQuery
from repro.collector.store import BundleStore
from repro.core.defensive import DefensiveReport
from repro.core.detector import DetectionStats
from repro.core.quantify import LossQuantifier, QuantifiedSandwich
from repro.parallel.chunks import ChunkTask

#: The pool worker's read-only archive handle, opened by :func:`init_worker`.
_WORKER_DB: ArchiveDatabase | None = None


@dataclass(frozen=True)
class ChunkOutcome:
    """Everything one chunk's analysis produced, ready to merge.

    The one record of judged work: the chunk workers, the incremental
    analyzer and the stream (one outcome per judged candidate) all emit
    it. All fields are picklable; per-chunk lists are already in the
    chunk's deterministic (collection-order) form, so the reducer only
    needs to concatenate outcomes by ``index`` and re-sort globally.
    The classification travels as ids plus the two sums its report
    keeps: the defensive tip total and ``(date, count)`` pairs.
    ``stage_seconds`` is purely observational, never merged into the
    report itself; a stream candidate leaves it, the bundle count and
    the classification at their empty defaults.
    """

    index: int
    quantified: tuple[QuantifiedSandwich, ...]
    stats: DetectionStats
    pending_detail_ids: tuple[str, ...]
    bundle_count: int = 0
    defensive: tuple[str, ...] = ()
    priority: tuple[str, ...] = ()
    defensive_tips_lamports: int = 0
    defensive_by_day: tuple[tuple[str, int], ...] = ()
    stage_seconds: tuple[tuple[str, float], ...] = ()


def classification_fields(report: DefensiveReport) -> dict:
    """A chunk's classification as :class:`ChunkOutcome` keyword fields."""
    return {
        "defensive": tuple(report.defensive_ids),
        "priority": tuple(report.priority_ids),
        "defensive_tips_lamports": report.defensive_tips_lamports,
        "defensive_by_day": tuple(report.defensive_by_day.items()),
    }


@dataclass
class ObjectChunkPayload:
    """The object path's loaded working set, ready for pure compute."""

    mini: BundleStore
    load_seconds: float = 0.0


def init_worker(archive_path: str) -> None:
    """Pool initializer: open the archive read-only, once per process."""
    global _WORKER_DB
    _WORKER_DB = ArchiveDatabase(archive_path, read_only=True)


def run_chunk_batch(tasks: tuple[ChunkTask, ...]) -> list[ChunkOutcome]:
    """Pool entry point: run one worker's round-robin share of the tasks
    on the connection :func:`init_worker` opened."""
    return list(iter_batch_outcomes(_WORKER_DB, tasks))


def load_task(database: ArchiveDatabase, task: ChunkTask):
    """Run one task's *load* stage (every SQLite round-trip it needs).

    The returned payload is engine-specific but always self-contained:
    :func:`compute_task` never touches the database, so the stage profile
    can time the two stages apart.
    """
    if task.engine == "columnar":
        from repro.columnar.engine import load_chunk_columnar

        return load_chunk_columnar(ArchiveQuery(database), task)
    task.validate()
    started = time.perf_counter()
    mini = _load_mini_store(database, task)
    return ObjectChunkPayload(
        mini=mini, load_seconds=time.perf_counter() - started
    )


def compute_task(task: ChunkTask, payload, intern=None) -> ChunkOutcome:
    """Run one task's *compute* stage over an already-loaded payload."""
    if task.engine == "columnar":
        from repro.columnar.engine import compute_chunk_columnar

        return compute_chunk_columnar(task, payload, intern=intern)
    return _compute_object_chunk(task, payload)


def iter_batch_outcomes(
    database: ArchiveDatabase, tasks: Sequence[ChunkTask]
) -> Iterator[ChunkOutcome]:
    """Load then compute each of ``tasks`` on ``database``, in order.

    Columnar tasks share one :class:`~repro.columnar.blocks.InternPool`
    across the batch.
    """
    intern = None
    if any(task.engine == "columnar" for task in tasks):
        from repro.columnar.blocks import InternPool

        intern = InternPool()
    for task in tasks:
        yield compute_task(task, load_task(database, task), intern=intern)


def _load_mini_store(database: ArchiveDatabase, task: ChunkTask) -> BundleStore:
    """The chunk's working set: its bundles plus detection-length details."""
    query = ArchiveQuery(database)
    mini = BundleStore()
    if task.bundle_ids:
        # Explicit worklist (incremental pending bundles): preserve the
        # given order — it is the serial analyzer's insertion order.
        bundles = [
            bundle
            for bundle in (
                query.bundle(bundle_id) for bundle_id in task.bundle_ids
            )
            if bundle is not None
        ]
        mini.add_bundles(bundles)
        for length in task.spec.detail_lengths:
            for bundle in mini.bundles_of_length(length):
                mini.add_details(query.details_for_bundle(bundle))
        return mini
    chunk = task.chunk
    mini.add_bundles(query.bundle_range(chunk.seq_lo, chunk.seq_hi))
    # One join per detail length, in the same bundle-then-member order
    # the per-bundle lookups above produce.
    for length in task.spec.detail_lengths:
        mini.add_details(
            query.details_for_range(chunk.seq_lo, chunk.seq_hi, length)
        )
    return mini


def _compute_object_chunk(
    task: ChunkTask, payload: ObjectChunkPayload
) -> ChunkOutcome:
    """Detector, quantifier, classifier over a loaded object working set.

    This is deliberately the same sequence the serial pipeline runs — in
    collection order, restricted to the chunk's bundles. Determinism of
    the merged result follows from each chunk being analyzed in
    collection order and the reducer preserving chunk order.
    """
    mini = payload.mini
    spec = task.spec

    detect_started = time.perf_counter()
    detector = spec.build_detector()
    events = detector.detect_all(mini)
    detect_seconds = time.perf_counter() - detect_started

    quantify_started = time.perf_counter()
    quantified = LossQuantifier(spec.build_oracle()).quantify_all(events)
    classification = spec.build_classifier().classify(mini)
    # Pending ids are reported in the chunk's collection order, so the
    # incremental analyzer's merged pending list is order-identical to a
    # serial pass over the same working set.
    wanted = set(spec.detail_lengths)
    pending = tuple(
        bundle.bundle_id
        for bundle in mini.bundles()
        if bundle.num_transactions in wanted and mini.missing_details(bundle)
    )
    quantify_seconds = time.perf_counter() - quantify_started

    return ChunkOutcome(
        index=task.index,
        bundle_count=len(mini),
        quantified=tuple(quantified),
        stats=detector.stats,
        pending_detail_ids=pending,
        stage_seconds=(
            ("load", payload.load_seconds),
            ("detect", detect_seconds),
            ("quantify", quantify_seconds),
        ),
        **classification_fields(classification),
    )
