"""The columnar chunk analyzer: the ``engine="columnar"`` half of the worker.

:func:`repro.parallel.worker.load_task` and
:func:`~repro.parallel.worker.compute_task` route a columnar
:class:`~repro.parallel.chunks.ChunkTask` here, and the result is the same
:class:`~repro.parallel.worker.ChunkOutcome` the object engine produces —
byte-identically, on any archive — so the parallel tier's deterministic
merge, the incremental analyzer, and the differential oracle apply without
modification.
Vectorization therefore *multiplies* with ``--jobs`` sharding: each worker
analyzes its chunks columnar-style, and the reducer cannot tell the
difference.

The analysis is split at the I/O boundary into
:func:`load_chunk_columnar` (every SQLite round-trip, producing a
picklable-free in-memory :class:`ColumnarChunkPayload`) and
:func:`compute_chunk_columnar` (pure in-memory mask evaluation). The
split is the stage-profiling seam: load time is measured around the
former, intern/detect/quantify around the latter's phases.

Only the standard length-three detector is supported; the windowed
detector's overlapping-window scan has no columnar formulation yet and
asking for one raises :class:`~repro.errors.ConfigError` up front.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.archive.query import ArchiveQuery
from repro.columnar import require_columnar
from repro.columnar.blocks import (
    BundleBlock,
    InternPool,
    TxFeatures,
    load_bundle_block,
    load_bundle_block_for_ids,
    load_tx_features,
    load_tx_features_range,
    split_candidates,
)
from repro.columnar.criteria import evaluate_block
from repro.columnar.quantify import quantify_block
from repro.core.detector import DetectionStats
from repro.dex.oracle import PriceOracle
from repro.errors import ConfigError
from repro.parallel.chunks import ChunkTask, DetectorSpec
from repro.parallel.worker import ChunkOutcome


def require_columnar_spec(spec: DetectorSpec) -> None:
    """Validate that ``spec`` describes a columnar-capable stack."""
    require_columnar()
    spec.validate()
    if spec.kind != "standard":
        raise ConfigError(
            "the columnar engine supports the standard length-three "
            f"detector only, not kind={spec.kind!r}; use --engine object"
        )


@dataclass
class ColumnarChunkPayload:
    """Everything a chunk needs after its last SQLite round-trip.

    Produced by :func:`load_chunk_columnar` and consumed by
    :func:`compute_chunk_columnar` — the payload itself never touches the
    database again.
    """

    block: BundleBlock
    candidate_indexes: list[int]
    features: dict[str, TxFeatures]
    load_seconds: float = 0.0


def load_chunk_columnar(
    query: ArchiveQuery, task: ChunkTask
) -> ColumnarChunkPayload:
    """Run every SQLite projection one chunk needs (the *load* stage).

    Range tasks take the coalesced fast path — one constant-SQL
    candidate join keyed by the chunk's seq bounds, reusing the
    connection's prepared statement across chunks — while explicit
    worklists (the incremental analyzer's pending re-checks) keep the
    id-batched path. Both produce the same features mapping: members
    without archived details are simply absent, surfacing as pending
    downstream exactly as in the object worker.
    """
    task.validate()
    require_columnar_spec(task.spec)
    started = time.perf_counter()
    if task.bundle_ids:
        block = load_bundle_block_for_ids(query, task.bundle_ids)
    else:
        block = load_bundle_block(
            query, task.chunk.seq_lo, task.chunk.seq_hi
        )

    candidate_indexes = [
        index
        for index, length in enumerate(block.lengths)
        if length == 3
    ]
    if task.bundle_ids:
        member_ids: list[str] = []
        edge_ids: list[str] = []
        for index in candidate_indexes:
            members = block.transaction_ids(index)
            member_ids.extend(members)
            edge_ids.append(members[0])
            edge_ids.append(members[2])
        features = load_tx_features(query, member_ids, edge_ids)
    else:
        features = load_tx_features_range(
            query, task.chunk.seq_lo, task.chunk.seq_hi
        )
    return ColumnarChunkPayload(
        block=block,
        candidate_indexes=candidate_indexes,
        features=features,
        load_seconds=time.perf_counter() - started,
    )


def compute_chunk_columnar(
    task: ChunkTask,
    payload: ColumnarChunkPayload,
    intern: InternPool | None = None,
) -> ChunkOutcome:
    """Evaluate a loaded chunk in memory (intern/detect/quantify stages).

    The sequence mirrors the object worker exactly — candidates in
    collection order, detected events stable-sorted by ``landed_at``,
    length-one bundles classified in collection order, pending ids in
    collection order — so the merged report is byte-identical. ``intern``
    optionally shares code tables across chunks (identity-safe: codes
    never reach the report).
    """
    spec = task.spec
    block = payload.block

    intern_started = time.perf_counter()
    candidates, skipped, pending = split_candidates(
        block, payload.features, payload.candidate_indexes, intern=intern
    )
    # Column materialization (interning included) belongs to the intern
    # phase; evaluation below touches cached primitive arrays only.
    candidates.prepare()
    intern_seconds = time.perf_counter() - intern_started

    detect_started = time.perf_counter()
    verdicts = evaluate_block(candidates, skip=spec.skip_criteria)
    landed = candidates.landed_column()
    event_order = sorted(
        verdicts.detected_indexes, key=lambda index: landed[index]
    )
    detect_seconds = time.perf_counter() - detect_started

    quantify_started = time.perf_counter()
    oracle = (
        PriceOracle(spec.usd_per_sol)
        if spec.usd_per_sol is not None
        else PriceOracle()
    )
    quantified = quantify_block(
        candidates, event_order, usd_per_sol=oracle.usd_per_sol
    )

    defensive, priority = block.classify_singles(spec.threshold_lamports)
    quantify_seconds = time.perf_counter() - quantify_started

    stats = DetectionStats(
        bundles_examined=verdicts.examined,
        bundles_detected=len(verdicts.detected_indexes),
        bundles_skipped_incomplete=skipped,
        rejections_by_criterion=verdicts.rejections,
    )
    return ChunkOutcome(
        index=task.index,
        bundle_count=len(block),
        quantified=tuple(quantified),
        defensive=tuple(defensive),
        priority=tuple(priority),
        stats=stats,
        pending_detail_ids=pending,
        elapsed_seconds=(
            payload.load_seconds
            + intern_seconds
            + detect_seconds
            + quantify_seconds
        ),
        worker=f"pid-{os.getpid()}",
        stage_seconds=(
            ("load", payload.load_seconds),
            ("intern", intern_seconds),
            ("detect", detect_seconds),
            ("quantify", quantify_seconds),
        ),
    )
