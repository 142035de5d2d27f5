"""repro.parallel: the work-sharded analysis engine.

Detection, quantification, and defensive classification are embarrassingly
parallel per bundle, so the engine splits an archived campaign into bounded
``seq``-range chunks (:meth:`repro.archive.query.ArchiveQuery.chunk_plan`),
fans the chunks out to a ``multiprocessing`` pool whose workers re-open the
archive read-only, and folds the per-chunk results back together with a
deterministic, order-independent reducer — serial and parallel runs produce
byte-identical reports.

- :mod:`repro.parallel.chunks` — picklable chunk tasks, each carrying
  the :class:`~repro.core.detector.DetectorSpec` (re-exported here)
- :mod:`repro.parallel.worker` — per-chunk load and compute stages
- :mod:`repro.parallel.merge` — the deterministic reducer
- :mod:`repro.parallel.engine` — :class:`ParallelAnalysisEngine`

``jobs=1`` runs every chunk in-process on the caller's connection and never
imports :mod:`multiprocessing`, keeping tests and single-core hosts
hermetic.
"""

from repro.core.detector import DetectorSpec
from repro.parallel.chunks import ChunkTask
from repro.parallel.engine import ParallelAnalysisEngine, default_jobs
from repro.parallel.merge import (
    MergedAnalysis,
    merge_outcomes,
    report_to_jsonable,
)
from repro.parallel.worker import ChunkOutcome

__all__ = [
    "ChunkOutcome",
    "ChunkTask",
    "DetectorSpec",
    "MergedAnalysis",
    "ParallelAnalysisEngine",
    "default_jobs",
    "merge_outcomes",
    "report_to_jsonable",
]
