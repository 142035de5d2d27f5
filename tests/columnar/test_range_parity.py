"""Parity of the coalesced range loaders and the batched record builder.

The read-path optimizations must be invisible above their seams:
:func:`load_tx_features_range` (one constant-SQL join per chunk) must
decode exactly the payloads the id-batched :func:`load_tx_features`
decodes, :meth:`BundleBlock.classify_singles` must classify exactly as
the classifier does over the block's records, and the shared
:class:`InternPool` must not change any block output. The record
constructor itself is pinned against the frozen dataclass in
``tests/archive/test_codec.py``.
"""

import pytest

from repro.archive.database import ArchiveDatabase
from repro.archive.query import ArchiveQuery
from repro.columnar.blocks import (
    InternPool,
    load_bundle_block,
    load_tx_features,
    load_tx_features_range,
    split_candidates,
)
from repro.core.defensive import DefensiveBundlingClassifier
from tests.parallel.helpers import build_archive

DESCRIPTORS = (
    [("sandwich", i, 2_000_000) for i in range(4)]
    + [("benign3", i, 50_000) for i in range(4)]
    + [("undetailed3", 2, 75_000) for _ in range(2)]
    + [("plain", i % 3, 10_000) for i in range(8)]
    + [("plain", 1, 900_000) for _ in range(3)]
    + [("pair", 5, 60_000) for _ in range(2)]
)


@pytest.fixture
def query(tmp_path):
    path = tmp_path / "archive.db"
    build_archive(path, DESCRIPTORS)
    database = ArchiveDatabase(path, read_only=True)
    yield ArchiveQuery(database)
    database.close()


def candidate_ids(block):
    """The id-path inputs: all member ids plus the attacker-edge ids."""
    member_ids, edge_ids = [], []
    for index, length in enumerate(block.lengths):
        if length != 3:
            continue
        members = block.transaction_ids(index)
        member_ids.extend(members)
        edge_ids.append(members[0])
        edge_ids.append(members[2])
    return member_ids, edge_ids


class TestRangeFeatureParity:
    def test_range_loader_matches_id_loader_per_chunk(self, query):
        for chunk in query.chunk_plan(5):
            block = load_bundle_block(query, chunk.seq_lo, chunk.seq_hi)
            member_ids, edge_ids = candidate_ids(block)
            by_range = load_tx_features_range(
                query, chunk.seq_lo, chunk.seq_hi
            )
            by_ids = load_tx_features(query, member_ids, edge_ids)
            assert by_range == by_ids

    def test_undetailed_members_are_absent_not_empty(self, query):
        total = query.count_bundles()
        features = load_tx_features_range(query, 1, total)
        block = load_bundle_block(query, 1, total)
        detailed = set(features)
        for index, length in enumerate(block.lengths):
            if length != 3:
                continue
            members = set(block.transaction_ids(index))
            # Every candidate is either fully detailed or fully pending
            # in this corpus; pending members never appear in features.
            assert members <= detailed or not (members & detailed)


class TestFastRecordParity:
    def test_classify_singles_matches_per_record_path(self, query):
        total = query.count_bundles()
        block = load_bundle_block(query, 1, total)
        threshold = 100_000
        report = block.classify_singles(threshold)
        expected = DefensiveBundlingClassifier(threshold).classify_records(
            block.record(index) for index in range(len(block))
        )
        assert report == expected
        assert report.priority_ids and report.defensive_ids
        assert report.length_one_total == sum(
            1 for length in block.lengths if length == 1
        )


class TestInternPoolParity:
    def _candidates(self, query, intern=None):
        total = query.count_bundles()
        block = load_bundle_block(query, 1, total)
        indexes = [
            i for i, length in enumerate(block.lengths) if length == 3
        ]
        payloads = load_tx_features_range(query, 1, total)
        split = split_candidates(block, payloads, indexes, intern=intern)
        return (
            split.candidates.prepare(),
            split.signer_rejections,
            split.pending,
        )

    def test_shared_pool_does_not_change_verdicts(self, query):
        from repro.columnar.criteria import evaluate_block

        pool = InternPool()
        fresh, rejected, pending = self._candidates(query)
        # Evaluate twice against the same pool: the second pass reuses
        # codes interned by the first, the cross-chunk scenario.
        pooled_one, rejected_one, pending_one = self._candidates(
            query, intern=pool
        )
        pooled_two, _, _ = self._candidates(query, intern=pool)
        assert (rejected_one, pending_one) == (rejected, pending)
        baseline = evaluate_block(fresh)
        for pooled in (pooled_one, pooled_two):
            verdicts = evaluate_block(pooled)
            assert verdicts.detected_indexes == baseline.detected_indexes
            assert verdicts.rejections == baseline.rejections
            assert verdicts.examined == baseline.examined
        # The pool actually accumulated interned entries.
        assert pool.mint_sets
        assert pool.leg_mints
