"""The synchronous fold that analyzes while collecting.

Every :class:`~repro.stream.events.StreamBatch` goes through
:meth:`~repro.stream.detector.StreamingDetector.ingest`, the resulting
delta through :meth:`~repro.stream.deltas.IncrementalReportBuilder.apply`
and the optional ``on_delta`` observer, the moment it is produced::

    batches ──▶ detector.ingest ──delta──▶ builder.apply (+ on_delta)

Batches come from a live campaign's collector tap, or from an existing
archive in attach mode (:func:`archive_batches`). Detection keeps pace
with collection and memory holds one batch at a time; once the batches
run out, ``finalize`` judges the stragglers and the final
:class:`~repro.core.pipeline.AnalysisReport` is one cheap merge away.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.archive.database import ArchiveDatabase
from repro.archive.schema import (
    BUNDLE_COLUMNS,
    DETAIL_COLUMNS,
    bundle_from_columns,
    detail_from_columns,
)
from repro.core.detector import DetectorSpec
from repro.core.pipeline import AnalysisReport
from repro.errors import ConfigError
from repro.obs.registry import MetricsRegistry
from repro.stream.deltas import IncrementalReportBuilder, ReportDelta
from repro.stream.detector import StreamingDetector
from repro.stream.events import StreamBatch

#: Optional observer invoked with every delta the builder folds.
DeltaObserver = Callable[[ReportDelta], None]


def fold_batches(
    batches: Iterable[StreamBatch],
    detector: StreamingDetector,
    builder: IncrementalReportBuilder,
    on_delta: DeltaObserver | None = None,
) -> None:
    """Fold every batch into the builder, then the finalize delta.

    On return the builder holds every verdict (``builder.finalized`` is
    True); an exception from any step propagates unchanged.
    """
    for batch in batches:
        _apply(detector.ingest(batch), builder, on_delta)
    _apply(detector.finalize(), builder, on_delta)


def _apply(
    delta: ReportDelta,
    builder: IncrementalReportBuilder,
    on_delta: DeltaObserver | None,
) -> None:
    builder.apply(delta)
    if on_delta is not None:
        on_delta(delta)


def archive_batches(
    database: ArchiveDatabase, batch_bundles: int
) -> Iterator[StreamBatch]:
    """Replay an existing archive in ``seq`` order, ``batch_bundles`` rows
    per batch: every bundle first, then every transaction detail.

    ``seq`` order equals original insertion order, so attach-mode
    streaming sees records exactly as a live campaign would have
    published them.
    """
    pending: list = []
    for row in database.tuples(
        f"SELECT {', '.join(BUNDLE_COLUMNS)} FROM bundles ORDER BY seq"
    ):
        pending.append(bundle_from_columns(*row))
        if len(pending) >= batch_bundles:
            yield StreamBatch(bundles=tuple(pending))
            pending = []
    if pending:
        yield StreamBatch(bundles=tuple(pending))
    details: list = []
    for row in database.tuples(
        f"SELECT {', '.join(DETAIL_COLUMNS)} FROM transactions ORDER BY seq"
    ):
        details.append(detail_from_columns(*row))
        if len(details) >= batch_bundles:
            yield StreamBatch(details=tuple(details))
            details = []
    if details:
        yield StreamBatch(details=tuple(details))


def analyze_archive_stream(
    database: ArchiveDatabase | str | Path,
    spec: DetectorSpec | None = None,
    batch_bundles: int = 256,
    metrics: MetricsRegistry | None = None,
    on_delta: DeltaObserver | None = None,
) -> AnalysisReport:
    """Attach-mode analysis: stream an archive through the online fold.

    Produces a report byte-identical (per
    :func:`repro.parallel.merge.report_bytes`) to
    ``AnalysisPipeline(spec).analyze_store(ArchiveBundleStore.resume(db))``,
    without materialising an in-memory store.

    Raises:
        ConfigError: ``batch_bundles`` is below 1 (checked before the
            archive is opened).
    """
    if batch_bundles < 1:
        raise ConfigError(
            f"batch_bundles must be >= 1, got {batch_bundles}"
        )
    owns_database = not isinstance(database, ArchiveDatabase)
    if owns_database:
        database = ArchiveDatabase(database, read_only=True)
    try:
        detector = StreamingDetector(spec=spec, metrics=metrics)
        builder = IncrementalReportBuilder(spec=detector.spec)
        fold_batches(
            archive_batches(database, batch_bundles),
            detector,
            builder,
            on_delta=on_delta,
        )
    finally:
        if owns_database:
            database.close()
    return builder.build(poll_overlap_fraction=None)
