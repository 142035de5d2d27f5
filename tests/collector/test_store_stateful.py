"""Stateful property testing of the bundle store.

Hypothesis drives random interleavings of inserts, duplicate inserts,
detail additions, and queries against a simple reference model; any
divergence between the optimized store (with its per-length indexes and
incremental views) and the model is a bug.
"""

from hypothesis import settings
from hypothesis.stateful import (
    Bundle as StateBundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.collector.store import BundleStore
from repro.explorer.models import BundleRecord, TransactionRecord


def make_bundle(index: int, length: int) -> BundleRecord:
    return BundleRecord(
        bundle_id=f"sm-{index}",
        slot=index,
        landed_at=float(index),
        tip_lamports=1_000 + index,
        transaction_ids=tuple(f"sm-{index}-t{j}" for j in range(length)),
    )


def make_detail(tx_id: str) -> TransactionRecord:
    return TransactionRecord(
        transaction_id=tx_id,
        slot=0,
        block_time=0.0,
        signer="s",
        signers=("s",),
        fee_lamports=5_000,
    )


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = BundleStore()
        self.model_bundles: dict[str, BundleRecord] = {}
        self.model_details: set[str] = set()
        self.counter = 0

    inserted = StateBundle("inserted")

    @rule(target=inserted, length=st.integers(min_value=1, max_value=5))
    def insert_new(self, length):
        self.counter += 1
        record = make_bundle(self.counter, length)
        added = self.store.add_bundles([record])
        assert added == 1
        self.model_bundles[record.bundle_id] = record
        return record

    @rule(record=inserted)
    def insert_duplicate(self, record):
        assert self.store.add_bundles([record]) == 0

    @rule(record=inserted, which=st.integers(min_value=0, max_value=4))
    def add_detail(self, record, which):
        tx_id = record.transaction_ids[which % len(record.transaction_ids)]
        self.store.add_details([make_detail(tx_id)])
        self.model_details.add(tx_id)

    @rule(record=inserted)
    def lookup_matches_model(self, record):
        assert self.store.get_bundle(record.bundle_id) == record

    @invariant()
    def counts_match_model(self):
        assert len(self.store) == len(self.model_bundles)
        assert self.store.detail_count() == len(self.model_details)

    @invariant()
    def histogram_matches_model(self):
        expected: dict[int, int] = {}
        for record in self.model_bundles.values():
            expected[record.num_transactions] = (
                expected.get(record.num_transactions, 0) + 1
            )
        assert self.store.length_histogram() == dict(sorted(expected.items()))

    @invariant()
    def length_classes_match_model(self):
        for length in range(1, 6):
            expected = {
                record.bundle_id
                for record in self.model_bundles.values()
                if record.num_transactions == length
            }
            actual = {
                record.bundle_id
                for record in self.store.bundles_of_length(length)
            }
            assert actual == expected

    @invariant()
    def missing_details_match_model(self):
        for record in self.model_bundles.values():
            expected_missing = [
                tx_id
                for tx_id in record.transaction_ids
                if tx_id not in self.model_details
            ]
            assert self.store.missing_details(record) == expected_missing


TestStoreStateful = StoreMachine.TestCase
TestStoreStateful.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
