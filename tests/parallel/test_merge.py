"""The reducer: order independence, stats folding, canonical bytes."""

import random

from repro.core.detector import DetectionStats
from repro.parallel.merge import merge_outcomes
from repro.parallel.worker import ChunkOutcome
from tests.archive.conftest import make_sandwich


def outcome(index: int, landed: list[float], **overrides) -> ChunkOutcome:
    fields = {
        "index": index,
        "bundle_count": len(landed),
        "quantified": tuple(
            _sandwich(index * 100 + n, at) for n, at in enumerate(landed)
        ),
        "defensive": (f"b{index * 100 + 50}",),
        "priority": (),
        "defensive_tips_lamports": 1_000 * (index + 1),
        "defensive_by_day": (("1970-01-01", 1),),
        "stats": DetectionStats(
            bundles_examined=len(landed),
            bundles_detected=len(landed),
            rejections_by_criterion={"same_mint_set": index + 1},
        ),
        "pending_detail_ids": (f"pending-{index}",),
    }
    fields.update(overrides)
    return ChunkOutcome(**fields)


def _sandwich(i: int, landed_at: float):
    sandwich = make_sandwich(i)
    bundle = sandwich.event.bundle
    object.__setattr__(bundle, "landed_at", landed_at)
    return sandwich


class TestMergeOutcomes:
    def test_completion_order_does_not_matter(self):
        outcomes = [outcome(i, [10.0 + i, 20.0 + i]) for i in range(5)]
        shuffled = outcomes[:]
        random.Random(7).shuffle(shuffled)
        merged_a = merge_outcomes(outcomes, threshold_lamports=100_000)
        merged_b = merge_outcomes(shuffled, threshold_lamports=100_000)
        ids_a = [q.event.bundle_id for q in merged_a.quantified]
        ids_b = [q.event.bundle_id for q in merged_b.quantified]
        assert ids_a == ids_b
        assert merged_a.pending_detail_ids == merged_b.pending_detail_ids
        assert merged_a.bundle_count == merged_b.bundle_count == 10

    def test_events_sorted_by_landed_at_with_stable_ties(self):
        # Chunk 0 and chunk 1 both contain a landed_at=50 event; the
        # earlier chunk's event must come first (collection order).
        merged = merge_outcomes(
            [outcome(1, [50.0]), outcome(0, [50.0, 40.0])],
            threshold_lamports=100_000,
        )
        landed = [q.event.bundle.landed_at for q in merged.quantified]
        assert landed == [40.0, 50.0, 50.0]
        ties = [
            q.event.bundle_id
            for q in merged.quantified
            if q.event.bundle.landed_at == 50.0
        ]
        assert ties == ["b0", "b100"]  # chunk 0's event before chunk 1's

    def test_pending_ids_keep_chunk_order(self):
        merged = merge_outcomes(
            [outcome(2, []), outcome(0, []), outcome(1, [])],
            threshold_lamports=100_000,
        )
        assert merged.pending_detail_ids == [
            "pending-0",
            "pending-1",
            "pending-2",
        ]

    def test_defensive_report_carries_threshold(self):
        merged = merge_outcomes([outcome(0, [])], threshold_lamports=42)
        assert merged.defensive_report.threshold_lamports == 42
        assert merged.defensive_report.defensive_ids == ["b50"]

    def test_classification_ids_concatenate_and_sums_add(self):
        merged = merge_outcomes(
            [
                outcome(
                    1,
                    [],
                    priority=("p1",),
                    defensive_by_day=(
                        ("2025-02-10", 2),
                        ("2025-02-09", 1),
                    ),
                ),
                outcome(0, [], defensive_by_day=(("2025-02-10", 1),)),
            ],
            threshold_lamports=100_000,
        )
        report = merged.defensive_report
        assert report.defensive_ids == ["b50", "b150"]
        assert report.priority_ids == ["p1"]
        assert report.defensive_tips_lamports == 1_000 + 2_000
        # Day counts add up and come back sorted by date.
        assert list(report.defensive_by_day.items()) == [
            ("2025-02-09", 1),
            ("2025-02-10", 3),
        ]


def _added(*tallies: DetectionStats) -> DetectionStats:
    total = DetectionStats()
    for tally in tallies:
        total.add(tally)
    return total


class TestMergeStats:
    """``DetectionStats.add``, which the reducer folds chunk tallies with."""

    def test_counts_sum_across_chunks(self):
        chunks = [
            outcome(0, [1.0]),
            outcome(
                1,
                [2.0, 3.0],
                stats=DetectionStats(
                    bundles_examined=2,
                    bundles_detected=2,
                    bundles_skipped_incomplete=4,
                    rejections_by_criterion={"same_mint_set": 2},
                ),
            ),
        ]
        stats = _added(*(chunk.stats for chunk in chunks))
        assert stats.bundles_examined == 3
        assert stats.bundles_detected == 3
        assert stats.bundles_skipped_incomplete == 4
        assert stats.rejections_by_criterion == {"same_mint_set": 3}
        merged = merge_outcomes(chunks, threshold_lamports=100_000)
        assert merged.stats == stats

    def test_rejection_order_is_first_appearance(self):
        first = DetectionStats(rejections_by_criterion={"alpha": 1, "beta": 2})
        second = DetectionStats(
            rejections_by_criterion={"gamma": 1, "alpha": 1}
        )
        stats = _added(first, second)
        assert list(stats.rejections_by_criterion) == [
            "alpha",
            "beta",
            "gamma",
        ]
        assert stats.rejections_by_criterion["alpha"] == 2
        # The addend is left as it was.
        assert second.rejections_by_criterion == {"gamma": 1, "alpha": 1}


class TestChunkSequenceGuard:
    def test_duplicate_index_raises_conformance_error(self):
        import pytest

        from repro.errors import ConformanceError

        with pytest.raises(ConformanceError) as excinfo:
            merge_outcomes(
                [outcome(0, [1.0]), outcome(0, [2.0])],
                threshold_lamports=100_000,
            )
        assert excinfo.value.diff == {"expected": [0, 1], "actual": [0, 0]}

    def test_missing_chunk_raises_conformance_error(self):
        import pytest

        from repro.errors import ConformanceError

        with pytest.raises(ConformanceError, match="chunk sequence"):
            merge_outcomes(
                [outcome(0, [1.0]), outcome(2, [2.0])],
                threshold_lamports=100_000,
            )

    def test_contiguous_indexes_pass(self):
        merged = merge_outcomes(
            [outcome(1, [2.0]), outcome(0, [1.0])],
            threshold_lamports=100_000,
        )
        assert merged.bundle_count == 2

    def test_nonzero_start_passes(self):
        # Incremental deltas omit chunk 0 when the pending-detail
        # worklist is empty; contiguity from any start is acceptable.
        merged = merge_outcomes(
            [outcome(2, [2.0]), outcome(1, [1.0]), outcome(3, [3.0])],
            threshold_lamports=100_000,
        )
        assert merged.bundle_count == 3
