"""The analyze-side chunk pipeline: prefetching and stage profiling.

``repro.parallel`` decides *what* to analyze (chunk planning, process
fan-out, deterministic merge); this package decides *when* the expensive
parts happen and *where the time goes*:

- :mod:`repro.pipeline.prefetch` — a thread-safe bounded work queue plus
  a background chunk reader that overlaps SQLite projection loading with
  in-memory mask evaluation;
- :mod:`repro.pipeline.profile` — the load/intern/detect/quantify/merge
  stage taxonomy, per-run accumulation, and the stage-breakdown table
  behind ``repro analyze --profile``.

Neither module touches report content: prefetching only reorders loads in
time, and profiling only observes, so byte identity of analysis output is
untouched by anything here.
"""

from repro.pipeline.prefetch import (
    END_OF_WORK,
    BoundedWorkQueue,
    ChunkPrefetcher,
    WorkQueueClosedError,
)
from repro.pipeline.profile import STAGES, StageProfile, StageTimer

__all__ = [
    "END_OF_WORK",
    "BoundedWorkQueue",
    "ChunkPrefetcher",
    "WorkQueueClosedError",
    "STAGES",
    "StageProfile",
    "StageTimer",
]
