"""Picklable chunk tasks.

Worker processes cannot receive live detector or classifier objects, so
each task carries the declarative
:class:`~repro.core.detector.DetectorSpec` and each worker builds its own
analysis stack from it. Everything in this module must stay picklable and
cheap to serialize — tasks cross a process boundary once per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.archive.query import ArchiveChunk
from repro.core.detector import DetectorSpec
from repro.errors import ConfigError

#: Default bundles per chunk. Large enough to amortize per-chunk overhead
#: (process dispatch, result pickling, SQLite query setup), small enough
#: that a 50k-bundle archive still spreads across a 4-worker pool.
DEFAULT_CHUNK_SIZE = 2_048


#: Chunk execution engines: per-bundle Python objects, or the vectorized
#: struct-of-arrays path of :mod:`repro.columnar`.
CHUNK_ENGINES = ("object", "columnar")


@dataclass(frozen=True)
class ChunkTask:
    """One unit of pool work: analyze one slice of one archive.

    Either ``chunk`` (a contiguous ``seq`` range) or ``bundle_ids`` (an
    explicit worklist, used for the incremental analyzer's carried-over
    pending bundles) selects the slice. ``index`` orders results during the
    merge regardless of completion order. ``engine`` picks the per-chunk
    implementation — both produce byte-identical outcomes, so tasks with
    different engines may even be mixed within one run. Tasks name no
    archive: every task runs on the connection of the thread or pool
    worker that executes it.
    """

    index: int
    spec: DetectorSpec
    chunk: ArchiveChunk | None = None
    bundle_ids: tuple[str, ...] = field(default_factory=tuple)
    engine: str = "object"

    def validate(self) -> None:
        """Raise :class:`ConfigError` when the slice selector is ambiguous."""
        if (self.chunk is None) == (not self.bundle_ids):
            raise ConfigError(
                "a chunk task needs exactly one of chunk or bundle_ids"
            )
        if self.engine not in CHUNK_ENGINES:
            raise ConfigError(
                f"chunk engine must be one of {CHUNK_ENGINES}, "
                f"got {self.engine!r}"
            )

