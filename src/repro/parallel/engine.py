"""The work-sharded analysis engine.

:class:`ParallelAnalysisEngine` is the archive-native counterpart of
:class:`~repro.core.pipeline.AnalysisPipeline`: instead of materializing a
whole campaign in memory, it streams the archive in bounded chunks, fans
them out to a process pool (or analyzes them in-process at ``jobs=1``), and
reduces the results deterministically. Serial and parallel runs emit
byte-identical reports — see :mod:`repro.parallel.merge` for the argument.

The ``jobs=1`` path never imports :mod:`multiprocessing`; the import lives
inside :meth:`ParallelAnalysisEngine._run_pool` and only executes when a
pool is actually wanted.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable

from repro.archive.database import ArchiveDatabase
from repro.archive.query import ArchiveQuery
from repro.archive.store import ArchiveBundleStore
from repro.core.detector import DetectorSpec
from repro.core.pipeline import AnalysisReport, assemble_report
from repro.errors import ConfigError
from repro.obs.profile import StageProfile, StageTimer
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.parallel.chunks import CHUNK_ENGINES, DEFAULT_CHUNK_SIZE, ChunkTask
from repro.parallel.merge import MergedAnalysis, merge_outcomes
from repro.parallel.worker import (
    ChunkOutcome,
    init_worker,
    iter_batch_outcomes,
    run_chunk_batch,
)

def default_jobs() -> int:
    """The engine's default worker count: all cores but one, at least 1."""
    return max(1, (os.cpu_count() or 1) - 1)


class ParallelAnalysisEngine:
    """Chunked, multi-process analysis over one archive database.

    ``jobs=None`` means :func:`default_jobs`, so an unset CLI option
    passes straight through.
    """

    def __init__(
        self,
        database: ArchiveDatabase | str | Path,
        jobs: int | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        spec: DetectorSpec | None = None,
        metrics: MetricsRegistry | None = None,
        engine: str = "object",
    ) -> None:
        self.database = (
            database
            if isinstance(database, ArchiveDatabase)
            else ArchiveDatabase(database)
        )
        self.jobs = default_jobs() if jobs is None else jobs
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        spec = spec or DetectorSpec()
        spec.validate()
        if engine not in CHUNK_ENGINES:
            raise ConfigError(
                f"engine must be one of {CHUNK_ENGINES}, got {engine!r}"
            )
        if engine == "columnar":
            # Fail fast, in the parent process, with an actionable message
            # — not lazily inside a pool worker.
            from repro.columnar.engine import require_columnar_spec

            require_columnar_spec(spec)
        self.engine = engine
        self.spec = spec
        # Workers build the same oracle from the spec, so every figure of
        # the report is priced at the one rate.
        self.oracle = spec.build_oracle()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.query = ArchiveQuery(self.database, metrics=self.metrics)
        #: Accumulated stage breakdown of the most recent run — reset by
        #: :meth:`analyze`, folded into by every observed outcome.
        self.stage_profile = StageProfile()

    # --- task execution ----------------------------------------------------

    def _run_in_process(self, tasks: list[ChunkTask]) -> list[ChunkOutcome]:
        outcomes: list[ChunkOutcome] = []
        for outcome in iter_batch_outcomes(self.database, tasks):
            self.stage_profile.add_outcome(outcome)
            outcomes.append(outcome)
        return outcomes

    def _run_pool(self, tasks: list[ChunkTask]) -> list[ChunkOutcome]:
        import multiprocessing

        workers = min(self.jobs, len(tasks))
        outcomes: list[ChunkOutcome] = []
        pool = multiprocessing.Pool(
            processes=workers,
            initializer=init_worker,
            initargs=(str(self.database.path),),
        )
        # Deal the chunk sequence round-robin into one batch per worker;
        # each worker loads and computes its batch itself. Outcomes keep
        # their global index, so the deterministic merge is indifferent to
        # the dealing.
        batches = [tuple(tasks[offset::workers]) for offset in range(workers)]
        try:
            for batch_outcomes in pool.imap_unordered(
                run_chunk_batch, batches
            ):
                for outcome in batch_outcomes:
                    self.stage_profile.add_outcome(outcome)
                    outcomes.append(outcome)
        finally:
            pool.close()
            pool.join()
        return outcomes

    def run_tasks(self, tasks: Iterable[ChunkTask]) -> list[ChunkOutcome]:
        """Analyze chunk tasks with the configured parallelism.

        Also the incremental analyzer's entry point for sharding its
        delta. Outcomes are returned in completion order; reducers must
        order by ``outcome.index`` (— :func:`merge_outcomes` does).
        """
        tasks = list(tasks)
        if not tasks:
            return []
        if self.jobs == 1 or len(tasks) == 1:
            return self._run_in_process(tasks)
        return self._run_pool(tasks)

    # --- the full pass -----------------------------------------------------

    def tasks_for_chunks(
        self, chunks: Iterable, first_index: int = 0
    ) -> list[ChunkTask]:
        """Wrap archive chunks in picklable tasks for this engine's spec."""
        return [
            ChunkTask(
                index=first_index + offset,
                spec=self.spec,
                chunk=chunk,
                engine=self.engine,
            )
            for offset, chunk in enumerate(chunks)
        ]

    def analyze(
        self,
        persist: bool = True,
        poll_overlap_fraction: float | None = None,
    ) -> AnalysisReport:
        """Analyze the whole archive and assemble the campaign report.

        With ``persist`` (the default) the merged detections and
        classifications replace the archive's stored analysis through
        :meth:`ArchiveBundleStore.record_analysis`, the serial pipeline's
        hook.
        """
        with self.metrics.span("parallel.analyze"):
            self.stage_profile = StageProfile()
            chunks = self.query.chunk_plan(self.chunk_size)
            tasks = self.tasks_for_chunks(chunks)
            outcomes = self.run_tasks(tasks)
            with StageTimer(self.stage_profile, "merge"):
                merged = merge_outcomes(
                    outcomes,
                    threshold_lamports=self.spec.threshold_lamports,
                )
                report = self.build_report(
                    merged, poll_overlap_fraction=poll_overlap_fraction
                )
            if persist:
                ArchiveBundleStore(
                    self.database, metrics=self.metrics
                ).record_analysis(report)
        return report

    def build_report(
        self,
        merged: MergedAnalysis,
        poll_overlap_fraction: float | None = None,
    ) -> AnalysisReport:
        """Campaign-level aggregation over merged chunk results."""
        return assemble_report(
            merged.quantified,
            merged.defensive_report,
            merged.stats,
            bundles_collected=self.query.count_bundles(),
            oracle=self.oracle,
            poll_overlap_fraction=poll_overlap_fraction,
        )
