"""Bundle store tests: dedup, indexing, histograms, persistence."""

import pytest

from repro.collector.store import BundleStore
from repro.explorer.models import BundleRecord, TransactionRecord


def bundle(i: int, length: int = 1, tip: int = 1_000, day: float = 0.0):
    landed = 1_739_059_200.0 + day * 86_400  # 2025-02-09 epoch
    return BundleRecord(
        bundle_id=f"bundle-{i}",
        slot=i,
        landed_at=landed,
        tip_lamports=tip,
        transaction_ids=tuple(f"tx-{i}-{j}" for j in range(length)),
    )


def detail(tx_id: str):
    return TransactionRecord(
        transaction_id=tx_id,
        slot=0,
        block_time=0.0,
        signer="s",
        signers=("s",),
        fee_lamports=5_000,
    )


class TestDedup:
    def test_add_counts_new_only(self):
        store = BundleStore()
        assert store.add_bundles([bundle(1), bundle(2)]) == 2
        assert store.add_bundles([bundle(2), bundle(3)]) == 1
        assert len(store) == 3

    def test_details_deduped(self):
        store = BundleStore()
        assert store.add_details([detail("a"), detail("a")]) == 1
        assert store.detail_count() == 1


class TestIndexes:
    def test_get_bundle(self):
        store = BundleStore()
        record = bundle(7)
        store.add_bundles([record])
        assert store.get_bundle("bundle-7") == record
        assert store.get_bundle("missing") is None

    def test_bundles_of_length(self):
        store = BundleStore()
        store.add_bundles([bundle(1, 1), bundle(2, 3), bundle(3, 3)])
        assert len(store.bundles_of_length(3)) == 2
        assert len(store.bundles_of_length(5)) == 0

    def test_length_histogram(self):
        store = BundleStore()
        store.add_bundles([bundle(1, 1), bundle(2, 1), bundle(3, 4)])
        assert store.length_histogram() == {1: 2, 4: 1}

    def test_counts_by_day(self):
        store = BundleStore()
        store.add_bundles(
            [bundle(1, 1, day=0), bundle(2, 3, day=0), bundle(3, 1, day=1)]
        )
        counts = store.counts_by_day()
        assert counts["2025-02-09"] == {1: 1, 3: 1}
        assert counts["2025-02-10"] == {1: 1}


class TestDetailTracking:
    def test_missing_details(self):
        store = BundleStore()
        record = bundle(1, length=3)
        store.add_bundles([record])
        store.add_details([detail("tx-1-0")])
        assert store.missing_details(record) == ["tx-1-1", "tx-1-2"]

    def test_fully_detailed_bundles(self):
        store = BundleStore()
        record = bundle(1, length=2)
        store.add_bundles([record])
        assert store.fully_detailed_bundles(2) == []
        store.add_details([detail("tx-1-0"), detail("tx-1-1")])
        assert store.fully_detailed_bundles(2) == [record]

    def test_get_detail(self):
        store = BundleStore()
        store.add_details([detail("x")])
        assert store.get_detail("x").transaction_id == "x"
        assert store.get_detail("y") is None


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        store = BundleStore()
        store.add_bundles([bundle(1, 3, tip=777)])
        store.add_details([detail("tx-1-0")])
        store.save(tmp_path)
        loaded = BundleStore.load(tmp_path)
        assert len(loaded) == 1
        assert loaded.get_bundle("bundle-1").tip_lamports == 777
        assert loaded.detail_count() == 1
        assert loaded.get_bundle("bundle-1").transaction_ids[2] == "tx-1-2"
