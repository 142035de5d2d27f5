"""Picklable chunk tasks and detector specifications.

Worker processes cannot receive live detector or classifier objects (the
general factories are arbitrary callables), so the engine ships a small
declarative :class:`DetectorSpec` instead and each worker builds its own
detector from it. Everything in this module must stay picklable and cheap
to serialize — tasks cross a process boundary once per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.archive.query import ArchiveChunk, ArchiveQuery, BundleFilter
from repro.constants import DEFENSIVE_TIP_THRESHOLD_LAMPORTS
from repro.core.defensive import DefensiveBundlingClassifier
from repro.core.detector import SandwichDetector, WindowedSandwichDetector
from repro.errors import ConfigError

#: Default bundles per chunk. Large enough to amortize per-chunk overhead
#: (process dispatch, result pickling, SQLite query setup), small enough
#: that a 50k-bundle archive still spreads across a 4-worker pool.
DEFAULT_CHUNK_SIZE = 2_048


@dataclass(frozen=True)
class DetectorSpec:
    """A declarative, picklable recipe for the per-chunk analysis stack.

    ``kind`` selects the detector class (``"standard"`` scans length-three
    bundles, ``"windowed"`` slides a window over ``lengths``);
    ``usd_per_sol`` parameterizes the quantifier's oracle so workers price
    events identically to the parent process.
    """

    kind: str = "standard"
    lengths: tuple[int, ...] = (3, 4, 5)
    skip_criteria: frozenset[str] = frozenset()
    threshold_lamports: int = DEFENSIVE_TIP_THRESHOLD_LAMPORTS
    usd_per_sol: float | None = None

    def validate(self) -> None:
        """Raise :class:`ConfigError` on nonsensical settings."""
        if self.kind not in {"standard", "windowed"}:
            raise ConfigError(
                f"detector kind must be standard or windowed, "
                f"got {self.kind!r}"
            )

    def canonical(self) -> dict:
        """The JSON-ready settings that decide the analysis rows.

        An archive's incremental watermark is stamped with this form.
        Engine, jobs and chunk size are not settings of the spec: they
        leave the rows byte-identical.
        """
        return {
            "kind": self.kind,
            "lengths": list(self.lengths),
            "skip_criteria": sorted(self.skip_criteria),
            "threshold_lamports": self.threshold_lamports,
            "usd_per_sol": self.usd_per_sol,
        }

    @property
    def detail_lengths(self) -> tuple[int, ...]:
        """Bundle lengths whose details a chunk loader must resolve."""
        if self.kind == "windowed":
            return tuple(sorted(set(self.lengths)))
        return (3,)

    def build_detector(self) -> SandwichDetector:
        """A fresh detector configured per this spec."""
        if self.kind == "windowed":
            return WindowedSandwichDetector(
                lengths=self.lengths, skip_criteria=self.skip_criteria
            )
        return SandwichDetector(skip_criteria=self.skip_criteria)

    def build_classifier(self) -> DefensiveBundlingClassifier:
        """A fresh defensive classifier per this spec."""
        return DefensiveBundlingClassifier(
            threshold_lamports=self.threshold_lamports
        )


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


def plan_chunks(
    query: ArchiveQuery,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    where: BundleFilter | None = None,
    seq_min: int | None = None,
) -> list[ArchiveChunk]:
    """Materialize the chunk plan for an archive in one window-function
    pass (:meth:`~repro.archive.query.ArchiveQuery.chunk_bounds`), rather
    than the keyset walk of ``iter_chunks`` — same chunks, one query."""
    return query.chunk_bounds(
        chunk_size=chunk_size, where=where, seq_min=seq_min
    )
