"""The parallel engine's perf-regression harness.

Builds one large synthetic archive (``BENCH_PARALLEL_BUNDLES`` bundles,
default 50,000 — CI's perf-smoke job shrinks it), then:

- checks serial pipeline, in-process engine, and pooled engine produce
  byte-identical canonical reports — at every job count, always; parity
  failures raise :class:`~repro.errors.ConformanceError` carrying the
  structured field diff instead of a kilobyte-long bytes repr;
- measures end-to-end analysis throughput (load + detect + quantify +
  classify + aggregate) serially and at 2/4 jobs, recording bundles/sec
  into ``BENCH_PERF.json``;
- asserts the >= 2x speedup at 4 jobs — only on hosts with >= 4 cores and
  a full-size archive, where the claim is physically meaningful; on
  smaller hosts the gate is skipped and the skip is annotated in the
  record itself ("cpu_count < jobs"), so a 1-CPU runner's multi-job
  numbers read as noise, not regressions;
- benchmarks the columnar engine (when numpy is importable): the
  detection core — criteria evaluation plus quantification over a
  preloaded working set — on a candidate-dense archive, asserting the
  >= 10x single-core speedup over the object core on full-size runs, and
  the end-to-end throughput on the mixed archive, asserting
  byte identity against the serial report always and the >= 3x
  end-to-end speedup over the serial object pipeline on full-size runs,
  with the engine's stage profile persisted alongside the number.
"""

from __future__ import annotations

import gc
import os
import time
from contextlib import contextmanager

import pytest

from benchmarks.conftest import record_perf
from repro.archive.store import ArchiveBundleStore
from repro.conformance.oracle import ensure_reports_identical
from repro.core.detector import DetectorSpec
from repro.core.pipeline import AnalysisPipeline
from repro.core.quantify import LossQuantifier
from repro.dex.oracle import PriceOracle
from repro.explorer.models import BundleRecord, TransactionRecord
from repro.parallel import ParallelAnalysisEngine

TOTAL_BUNDLES = int(os.environ.get("BENCH_PARALLEL_BUNDLES", "50000"))
#: Below this size, pool startup dominates and a speedup claim is noise.
SPEEDUP_FLOOR_BUNDLES = 20_000
#: The detection-core archive is smaller — every bundle is a length-3
#: candidate, so the criteria path sees 8x the work per bundle.
CORE_BUNDLES = max(1_000, TOTAL_BUNDLES // 8)
#: The columnar acceptance bar: vectorized criteria evaluation plus
#: quantification must clear 10x the object core, single-core.
COLUMNAR_CORE_FLOOR = 10.0
#: The columnar read path's acceptance bar: columnar end-to-end must
#: clear 3x the serial object pipeline on full-size runs, single-core.
COLUMNAR_E2E_FLOOR = 3.0
BASE_TIME = 1_739_059_200.0


def _swap(tx_id, signer, mint_in, mint_out, amount_in, amount_out):
    return TransactionRecord(
        transaction_id=tx_id,
        slot=1,
        block_time=BASE_TIME,
        signer=signer,
        signers=(signer,),
        fee_lamports=5_000,
        token_deltas={signer: {mint_in: -amount_in, mint_out: amount_out}},
        events=(
            {
                "type": "swap",
                "pool": "POOL",
                "owner": signer,
                "mint_in": mint_in,
                "mint_out": mint_out,
                "amount_in": amount_in,
                "amount_out": amount_out,
            },
        ),
    )


def _synthetic_rows(total: int):
    """Yield (bundle, records): ~2% sandwiches, 4% benign triples, 2%
    forever-pending triples, the rest length-1 tips straddling the
    defensive threshold. Tenths share a landed_at, forcing tie-breaks."""
    for i in range(total):
        kind = i % 100
        landed = BASE_TIME + (i // 10) * 0.4
        tip = 10_000 + (i % 7) * 45_000
        if kind < 2:
            records = [
                _swap(f"t{i}f", f"atk{i}", "SOL", "MEME", 1_000, 1_000_000),
                _swap(f"t{i}v", f"vic{i}", "SOL", "MEME", 10_000, 9_000_000),
                _swap(f"t{i}b", f"atk{i}", "MEME", "SOL", 1_000_000, 1_100),
            ]
            tip = 2_000_000
        elif kind < 6:
            records = [
                _swap(f"t{i}x{j}", f"u{i}x{j}", "SOL", "OTHER", 500, 400_000)
                for j in range(3)
            ]
        elif kind < 8:
            # Length-3 but details never fetched: stays pending forever.
            yield (
                BundleRecord(
                    bundle_id=f"b{i}",
                    slot=1_000 + i,
                    landed_at=landed,
                    tip_lamports=tip,
                    transaction_ids=(f"t{i}p0", f"t{i}p1", f"t{i}p2"),
                ),
                [],
            )
            continue
        else:
            records = [
                _swap(f"t{i}s", f"solo{i}", "SOL", "OTHER", 100, 90_000)
            ]
        yield (
            BundleRecord(
                bundle_id=f"b{i}",
                slot=1_000 + i,
                landed_at=landed,
                tip_lamports=tip,
                transaction_ids=tuple(r.transaction_id for r in records),
            ),
            records,
        )


@pytest.fixture(scope="module")
def big_archive(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench-parallel") / "archive.db"
    store = ArchiveBundleStore(path)
    bundles, details = [], []
    for bundle, records in _synthetic_rows(TOTAL_BUNDLES):
        bundles.append(bundle)
        details.extend(records)
        if len(bundles) >= 5_000:
            store.add_bundles(bundles)
            store.add_details(details)
            bundles, details = [], []
    store.add_bundles(bundles)
    store.add_details(details)
    store.flush()
    store.database.close()
    return path


@contextmanager
def _gc_paused():
    """Pause the cyclic collector inside a timed region.

    Allocation-heavy analysis otherwise pays for whatever live heap the
    *suite* has accumulated by the time a test runs — gen-2 collections
    scale with total live objects, so the same code measures up to 2x
    slower late in the session than solo. A collect-then-disable window,
    applied symmetrically to every timed region, makes the recorded
    numbers a property of the code under test rather than of test order.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _timed_serial(path, repeats=1):
    """Serial-pipeline wall time (store resume included), best of N.

    The minimum over ``repeats`` runs is the standard noise-floor
    estimate: scheduler preemption and cache eviction only ever add
    time, so the fastest observation is the closest to the code's cost.
    """
    best = None
    for _ in range(repeats):
        with _gc_paused():
            started = time.perf_counter()
            store = ArchiveBundleStore.resume(path)
            report = AnalysisPipeline().analyze_store(store)
            elapsed = time.perf_counter() - started
        store.database.close()
        best = elapsed if best is None else min(best, elapsed)
    return report, best


def _timed_engine(path, jobs, chunk_size=2_048, repeats=1):
    """Engine wall time (fresh engine per run), best of N."""
    best = None
    for _ in range(repeats):
        engine = ParallelAnalysisEngine(
            path, jobs=jobs, chunk_size=chunk_size
        )
        with _gc_paused():
            started = time.perf_counter()
            report = engine.analyze(persist=False)
            elapsed = time.perf_counter() - started
        engine.database.close()
        best = elapsed if best is None else min(best, elapsed)
    return report, best


def test_parallel_output_byte_identical(big_archive):
    serial, _ = _timed_serial(big_archive)
    for jobs in (1, 2, 4):
        report, _ = _timed_engine(big_archive, jobs=jobs)
        ensure_reports_identical(
            serial, report, "serial", f"parallel-j{jobs}", mode="exact"
        )


def test_end_to_end_throughput_and_speedup(big_archive):
    cpu_count = os.cpu_count() or 1
    serial_report, serial_s = _timed_serial(big_archive)
    record_perf(
        "analyze_end_to_end_serial", TOTAL_BUNDLES, serial_s, jobs=1
    )
    timings = {}
    for jobs in (2, 4):
        report, elapsed = _timed_engine(big_archive, jobs=jobs)
        ensure_reports_identical(
            serial_report, report, "serial", f"parallel-j{jobs}", mode="exact"
        )
        timings[jobs] = elapsed
        extra = {}
        if cpu_count < jobs:
            # A multi-job speedup on fewer cores than jobs is noise, not
            # signal; the record says so explicitly instead of looking
            # like a regression in cross-host trend diffs.
            extra["speedup_gate"] = f"skipped: cpu_count {cpu_count} < jobs"
        record_perf(
            f"analyze_end_to_end_parallel_{jobs}",
            TOTAL_BUNDLES,
            elapsed,
            jobs=jobs,
            speedup_vs_serial=round(serial_s / elapsed, 3),
            **extra,
        )
    if cpu_count >= 4 and TOTAL_BUNDLES >= SPEEDUP_FLOOR_BUNDLES:
        speedup = serial_s / timings[4]
        assert speedup >= 2.0, (
            f"expected >= 2x end-to-end speedup at 4 jobs on "
            f"{cpu_count} cores, measured {speedup:.2f}x"
        )


def test_detect_and_quantify_throughput(big_archive):
    store = ArchiveBundleStore.resume(big_archive)

    started = time.perf_counter()
    events = DetectorSpec().build_detector().detect_all(store)
    record_perf(
        "detect_all", len(store), time.perf_counter() - started, jobs=1
    )
    assert events, "synthetic archive produced no sandwiches"

    started = time.perf_counter()
    quantified = LossQuantifier(PriceOracle()).quantify_all(events)
    quantify_s = time.perf_counter() - started
    record_perf(
        "quantify_all",
        len(store),
        quantify_s,
        jobs=1,
        sandwiches=len(quantified),
    )
    store.database.close()


def _candidate_rows(total: int):
    """Yield length-3 candidate bundles: every 20th a sandwich, the rest
    benign triples. Candidate-dense (every bundle walks the five
    criteria) but detection-sparse (5%), matching the measured archives'
    skew — the representative workload for the detection core."""
    for i in range(total):
        landed = BASE_TIME + (i // 10) * 0.4
        if i % 20 == 0:
            records = [
                _swap(f"c{i}f", f"catk{i}", "SOL", "MEME", 1_000, 1_000_000),
                _swap(f"c{i}v", f"cvic{i}", "SOL", "MEME", 10_000, 9_000_000),
                _swap(f"c{i}b", f"catk{i}", "MEME", "SOL", 1_000_000, 1_100),
            ]
            tip = 2_000_000
        else:
            records = [
                _swap(f"c{i}x{j}", f"cu{i}x{j}", "SOL", "OTHER", 500, 400_000)
                for j in range(3)
            ]
            tip = 50_000
        yield (
            BundleRecord(
                bundle_id=f"core{i}",
                slot=1_000 + i,
                landed_at=landed,
                tip_lamports=tip,
                transaction_ids=tuple(r.transaction_id for r in records),
            ),
            records,
        )


@pytest.fixture(scope="module")
def candidate_archive(tmp_path_factory):
    """One all-candidates archive for the detection-core benchmarks."""
    path = tmp_path_factory.mktemp("bench-core") / "candidates.db"
    store = ArchiveBundleStore(path)
    bundles, details = [], []
    for bundle, records in _candidate_rows(CORE_BUNDLES):
        bundles.append(bundle)
        details.extend(records)
        if len(bundles) >= 5_000:
            store.add_bundles(bundles)
            store.add_details(details)
            bundles, details = [], []
    store.add_bundles(bundles)
    store.add_details(details)
    store.flush()
    store.database.close()
    return path


def _single_chunk_task(path, engine):
    """A one-chunk task covering the whole archive, plus its connection."""
    from repro.archive.database import ArchiveDatabase
    from repro.archive.query import ArchiveQuery
    from repro.parallel.chunks import ChunkTask

    database = ArchiveDatabase(path, read_only=True)
    (chunk,) = ArchiveQuery(database).chunk_plan(10**9)
    task = ChunkTask(
        index=0,
        spec=DetectorSpec(usd_per_sol=150.0),
        chunk=chunk,
        engine=engine,
    )
    return database, task


def test_columnar_detect_core_speedup(candidate_archive):
    """The >= 10x acceptance gate: both detection cores run over a
    preloaded working set — SQL and JSON decode excluded on both sides,
    so the comparison is criteria evaluation + quantification against
    criteria evaluation + quantification. The columnar window holds
    :func:`split_candidates`, which decides criterion 1 and builds the
    features of the candidates that pass it, as the object window holds
    the detector's criterion 1 and its trade parsing; column interning
    (``prepare``) stays outside it, as before."""
    pytest.importorskip("numpy")
    from repro.columnar.blocks import (
        load_bundle_block,
        load_tx_features,
        split_candidates,
    )
    from repro.columnar.criteria import evaluate_block
    from repro.columnar.quantify import quantify_block
    from repro.archive.query import ArchiveQuery
    from repro.parallel.worker import _load_mini_store

    # Object core: working set preloaded.
    database, task = _single_chunk_task(candidate_archive, "object")
    mini = _load_mini_store(database, task)
    detector = task.spec.build_detector()
    started = time.perf_counter()
    events = detector.detect_all(mini)
    object_quantified = LossQuantifier(PriceOracle(150.0)).quantify_all(
        events
    )
    object_s = time.perf_counter() - started
    database.close()

    # Columnar core: block and detail payloads loaded; the split and the
    # vector work are timed.
    database, task = _single_chunk_task(candidate_archive, "columnar")
    query = ArchiveQuery(database)
    block = load_bundle_block(query, task.chunk.seq_lo, task.chunk.seq_hi)
    candidate_indexes = [
        index for index, length in enumerate(block.lengths) if length == 3
    ]
    member_ids, edge_ids = [], []
    for index in candidate_indexes:
        members = block.transaction_ids(index)
        member_ids.extend(members)
        edge_ids.extend((members[0], members[2]))
    payloads = load_tx_features(query, member_ids, edge_ids)
    started = time.perf_counter()
    split = split_candidates(block, payloads, candidate_indexes)
    split_s = time.perf_counter() - started
    candidates = split.candidates.prepare()  # interning: outside the window
    started = time.perf_counter()
    verdicts = evaluate_block(candidates)
    landed = candidates.landed_column()
    order = sorted(verdicts.detected_indexes, key=lambda i: landed[i])
    columnar_quantified = quantify_block(
        candidates, order, usd_per_sol=150.0
    )
    columnar_s = split_s + time.perf_counter() - started
    database.close()

    assert columnar_quantified == object_quantified  # full-value parity
    assert len(columnar_quantified) == len(range(0, CORE_BUNDLES, 20))
    speedup = object_s / columnar_s
    record_perf(
        "detect_core_object", CORE_BUNDLES, object_s, jobs=1
    )
    record_perf(
        "detect_core_columnar",
        CORE_BUNDLES,
        columnar_s,
        engine="columnar",
        jobs=1,
        speedup_vs_object=round(speedup, 2),
    )
    if TOTAL_BUNDLES >= SPEEDUP_FLOOR_BUNDLES:
        assert speedup >= COLUMNAR_CORE_FLOOR, (
            f"expected >= {COLUMNAR_CORE_FLOOR}x single-core detection "
            f"speedup, measured {speedup:.2f}x"
        )


def test_columnar_end_to_end_byte_identical_and_throughput(big_archive):
    """End-to-end columnar numbers on the mixed archive: byte identity
    against both the object engine and the serial pipeline is the hard
    requirement, and on full-size runs the columnar read path (coalesced
    projections) must clear ``COLUMNAR_E2E_FLOOR`` x the
    serial object pipeline. Both sides of the gated ratio are measured
    the same way — collector paused, best of N fresh runs, back to back
    in this test — so the gate compares code, not suite-position noise;
    the engine's stage profile (from the best run) is persisted into the
    record for the "where the time goes" trend."""
    pytest.importorskip("numpy")

    serial_report, serial_s = _timed_serial(big_archive, repeats=2)
    object_report, object_s = _timed_engine(big_archive, jobs=1)
    columnar_s = None
    for _ in range(3):
        engine = ParallelAnalysisEngine(
            big_archive, jobs=1, chunk_size=2_048, engine="columnar"
        )
        with _gc_paused():
            started = time.perf_counter()
            columnar_report = engine.analyze(persist=False)
            elapsed = time.perf_counter() - started
        engine.database.close()
        if columnar_s is None or elapsed < columnar_s:
            columnar_s = elapsed
            stage_profile = engine.stage_profile.as_dict()
    ensure_reports_identical(
        object_report, columnar_report, "object", "columnar", mode="exact"
    )
    ensure_reports_identical(
        serial_report, columnar_report, "serial", "columnar", mode="exact"
    )
    speedup_vs_serial = serial_s / columnar_s
    record_perf(
        "analyze_end_to_end_columnar",
        TOTAL_BUNDLES,
        columnar_s,
        engine="columnar",
        jobs=1,
        speedup_vs_object=round(object_s / columnar_s, 3),
        speedup_vs_serial=round(speedup_vs_serial, 3),
        stage_profile=stage_profile,
    )
    if TOTAL_BUNDLES >= SPEEDUP_FLOOR_BUNDLES:
        assert speedup_vs_serial >= COLUMNAR_E2E_FLOOR, (
            f"expected >= {COLUMNAR_E2E_FLOOR}x end-to-end columnar "
            f"speedup over the serial pipeline on a full-size archive, "
            f"measured {speedup_vs_serial:.2f}x"
        )
