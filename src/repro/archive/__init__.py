"""repro.archive: the indexed, resumable campaign archive.

A durable SQLite mirror of everything one measurement campaign collects and
derives, plus the query engine re-measurement studies run against it:

- :mod:`repro.archive.schema` — versioned DDL and wire↔row converters
- :mod:`repro.archive.database` — WAL-mode connection and migrations
- :mod:`repro.archive.store` — batched :class:`ArchiveBundleStore` writer
- :mod:`repro.archive.query` — typed filters, pagination, aggregations
- :mod:`repro.archive.checkpoint` — kill/resume with byte-identical output
- :mod:`repro.archive.incremental` — watermarked delta re-analysis
"""

from repro.archive.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointedCampaign,
    scenario_fingerprint,
)
from repro.archive.database import (
    ARCHIVE_FILENAME,
    ArchiveDatabase,
    is_archive_path,
)
from repro.archive.incremental import IncrementalAnalyzer, IncrementalResult
from repro.archive.query import (
    ArchiveChunk,
    ArchiveQuery,
    BundleFilter,
    SandwichFilter,
)
from repro.archive.schema import SCHEMA_VERSION
from repro.archive.store import ArchiveBundleStore, FlushPolicy

__all__ = [
    "ARCHIVE_FILENAME",
    "ArchiveBundleStore",
    "ArchiveChunk",
    "ArchiveDatabase",
    "ArchiveQuery",
    "BundleFilter",
    "CHECKPOINT_VERSION",
    "CheckpointedCampaign",
    "FlushPolicy",
    "IncrementalAnalyzer",
    "IncrementalResult",
    "SandwichFilter",
    "SCHEMA_VERSION",
    "scenario_fingerprint",
    "is_archive_path",
]
