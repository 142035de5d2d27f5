"""Boundary regressions for ``chunk_plan`` projections and the engines.

Chunk planning partitions the archive by ``seq``; these tests pin the
awkward partitions: consecutive sandwich bundles (front/back attack
traffic) split across a chunk boundary, incremental passes starting from a
nonzero cursor, and archives where candidates' details have not arrived.
"""

import pytest

pytest.importorskip("numpy")

from repro.archive.database import ArchiveDatabase  # noqa: E402
from repro.archive.incremental import IncrementalAnalyzer  # noqa: E402
from repro.archive.query import ArchiveQuery  # noqa: E402
from repro.columnar.blocks import load_bundle_block  # noqa: E402
from repro.parallel.engine import ParallelAnalysisEngine  # noqa: E402
from repro.parallel.merge import report_bytes  # noqa: E402
from tests.columnar.helpers import build_archive, descriptor_rows  # noqa: E402
from tests.parallel.helpers import write_rows  # noqa: E402

pytestmark = pytest.mark.columnar

#: Two adjacent sandwiches sharing one landed_at tick, so any chunk size
#: below 2 splits the attack pair across chunks and the merge must
#: re-establish collection order; plus pending and single bundles.
SPLIT = [
    ("sandwich", 0, 600_000),
    ("sandwich", 0, 700_000),
    ("undetailed3", 0, 50_000),
    ("plain", 1, 40_000),
    ("sandwich", 1, 800_000),
]


def test_chunk_boundary_splits_adjacent_sandwiches(tmp_path):
    rows = descriptor_rows(SPLIT)
    reports = {}
    for label, chunk_size, engine in (
        ("whole", 100, "object"),
        ("split-obj", 1, "object"),
        ("split-col", 1, "columnar"),
    ):
        path = tmp_path / f"{label}.db"
        write_rows(path, rows)
        runner = ParallelAnalysisEngine(
            path, jobs=1, chunk_size=chunk_size, engine=engine
        )
        reports[label] = runner.analyze(persist=False)
        runner.database.close()
    assert report_bytes(reports["whole"]) == report_bytes(
        reports["split-obj"]
    )
    assert report_bytes(reports["whole"]) == report_bytes(
        reports["split-col"]
    )
    assert reports["whole"].sandwich_count == 3


def test_bundle_columns_respect_chunk_edges(tmp_path):
    path = build_archive(tmp_path / "edges.db", SPLIT)
    database = ArchiveDatabase(path, read_only=True)
    query = ArchiveQuery(database)
    chunks = query.chunk_plan(2)
    assert [c.count for c in chunks] == [2, 2, 1]
    seen = []
    for chunk in chunks:
        block = load_bundle_block(query, chunk.seq_lo, chunk.seq_hi)
        assert len(block) == chunk.count
        assert block.seqs[0] == chunk.seq_lo
        assert block.seqs[-1] == chunk.seq_hi
        seen.extend(block.bundle_ids)
    full = load_bundle_block(query, 1, 10_000)
    assert seen == full.bundle_ids  # disjoint cover, collection order
    database.close()


def test_incremental_from_nonzero_cursor_matches_serial(tmp_path):
    """Pass 2 starts at a nonzero watermark; its chunk plan must cover
    exactly the delta for both engines."""
    # Materialized once: the descriptor helper mints fresh ids per call,
    # and both engines must see the byte-identical archive.
    first = descriptor_rows(SPLIT[:2])
    second = descriptor_rows(SPLIT[2:])
    reports = {}
    for engine in ("object", "columnar"):
        path = tmp_path / f"cursor-{engine}.db"
        write_rows(path, first)
        analyzer = IncrementalAnalyzer(
            ArchiveDatabase(path), engine=engine, chunk_size=2
        )
        analyzer.analyze()
        state = analyzer.load_state()
        assert state["last_bundle_seq"] == 2  # the nonzero cursor
        write_rows(path, second)
        result = analyzer.analyze()
        assert result.new_bundles == len(second)
        reports[engine] = result.report
        analyzer.database.close()
    from repro.conformance.oracle import ensure_reports_identical

    ensure_reports_identical(
        reports["object"], reports["columnar"], mode="contract"
    )


def test_pending_details_stay_pending_across_engines(tmp_path):
    """Archives holding unfetched details: both engines report the same
    pending worklist, and a later detail arrival resolves it identically."""
    rows = descriptor_rows(
        [
            ("undetailed3", 0, 80_000),
            ("sandwich", 0, 500_000),
            ("undetailed3", 1, 90_000),
        ]
    )
    pendings = {}
    for engine in ("object", "columnar"):
        path = tmp_path / f"pend-{engine}.db"
        write_rows(path, rows)
        analyzer = IncrementalAnalyzer(
            ArchiveDatabase(path), engine=engine, chunk_size=1
        )
        result = analyzer.analyze()
        assert result.pending_detail_bundles == 2
        state = analyzer.load_state()
        pendings[engine] = state["state"]["pending_ids"]
        assert (
            result.report.detection_stats.bundles_skipped_incomplete == 2
        )
        analyzer.database.close()
    # Identical ids in identical (collection) order — the worklist the
    # next pass re-feeds must not depend on the engine.
    assert pendings["object"] == pendings["columnar"]
