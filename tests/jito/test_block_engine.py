"""Block engine tests: auction order, atomicity, bundle log, stats."""

import gc
import json
import weakref

import pytest

from repro.explorer.service import record_from_receipt
from repro.explorer.wire import transaction_record_to_json
from repro.jito.bundle import Bundle
from repro.jito.tips import build_tip_instruction
from repro.solana.system_program import transfer
from repro.solana.keys import Keypair
from repro.solana.transaction import Transaction


@pytest.fixture
def engine_world(fresh_world):
    world = fresh_world
    payer = Keypair("engine-payer")
    world.bank.fund(payer, 10**12)
    return world, payer


def tipped_bundle(payer, tip: int, fail: bool = False) -> Bundle:
    other = Keypair("engine-other")
    amount = 10**15 if fail else 100
    tx = Transaction.build(
        payer,
        [
            transfer(payer.pubkey, other.pubkey, amount),
            build_tip_instruction(payer.pubkey, tip),
        ],
    )
    return Bundle.of(tx)


class TestBlockProduction:
    def test_bundles_land_in_tip_order(self, engine_world):
        world, payer = engine_world
        low = tipped_bundle(payer, 1_000)
        high = tipped_bundle(payer, 9_000_000)
        world.relayer.submit_bundle(low, world.clock.now())
        world.relayer.submit_bundle(high, world.clock.now())
        world.clock.advance(1.0)
        world.block_engine.produce_block()
        log = world.block_engine.bundle_log
        assert [o.bundle_id for o in log] == [high.bundle_id, low.bundle_id]

    def test_failed_bundle_dropped_and_rolled_back(self, engine_world):
        world, payer = engine_world
        other = Keypair("engine-other")
        before = world.bank.lamport_balance(other.pubkey)
        bundle = tipped_bundle(payer, 5_000, fail=True)
        world.relayer.submit_bundle(bundle, world.clock.now())
        world.clock.advance(1.0)
        world.block_engine.produce_block()
        assert world.block_engine.stats.bundles_dropped == 1
        assert world.block_engine.stats.bundles_landed == 0
        assert world.bank.lamport_balance(other.pubkey) == before

    def test_bundle_log_records_tip_and_tx_ids(self, engine_world):
        world, payer = engine_world
        bundle = tipped_bundle(payer, 7_777)
        world.relayer.submit_bundle(bundle, world.clock.now())
        world.clock.advance(1.0)
        world.block_engine.produce_block()
        outcome = world.block_engine.bundle_log[0]
        assert outcome.tip_lamports == 7_777
        assert outcome.transaction_ids == tuple(bundle.transaction_ids)
        assert outcome.num_transactions == 1

    def test_native_transactions_processed(self, engine_world):
        world, payer = engine_world
        other = Keypair("engine-other")
        tx = Transaction.build(payer, [transfer(payer.pubkey, other.pubkey, 55)])
        world.relayer.submit_transaction(tx, world.clock.now())
        world.clock.advance(1.0)
        block = world.block_engine.produce_block()
        assert world.block_engine.stats.native_landed == 1
        assert any(
            receipt.transaction_id == tx.transaction_id
            for receipt in block.transactions
        )

    def test_failed_native_dropped(self, engine_world):
        world, payer = engine_world
        other = Keypair("engine-other")
        tx = Transaction.build(
            payer, [transfer(payer.pubkey, other.pubkey, 10**18)]
        )
        world.relayer.submit_transaction(tx, world.clock.now())
        world.clock.advance(1.0)
        world.block_engine.produce_block()
        assert world.block_engine.stats.native_dropped == 1

    def test_slots_strictly_increase(self, engine_world):
        world, _ = engine_world
        slots = []
        for _ in range(3):
            world.clock.advance(0.1)  # less than a slot
            slots.append(world.block_engine.produce_block().slot)
        assert slots == sorted(set(slots))

    def test_block_appended_to_ledger(self, engine_world):
        world, _ = engine_world
        world.clock.advance(1.0)
        block = world.block_engine.produce_block()
        assert world.ledger.block_at_slot(block.slot) is block

    def test_ledger_has_no_bundle_trace(self, engine_world):
        # The paper's core measurement obstacle: bundle structure never
        # reaches the final ledger.
        world, payer = engine_world
        bundle = tipped_bundle(payer, 2_000)
        world.relayer.submit_bundle(bundle, world.clock.now())
        world.clock.advance(1.0)
        block = world.block_engine.produce_block()
        assert block.transactions
        for receipt in block.transactions:
            assert not hasattr(receipt, "bundle_id")
            wire = json.dumps(
                transaction_record_to_json(
                    record_from_receipt(receipt, block.unix_timestamp)
                )
            )
            assert "bundle" not in wire
            assert bundle.bundle_id not in wire

    @pytest.mark.parametrize("path", ["native", "bundle"])
    def test_ledger_keeps_the_receipt_not_the_transaction(
        self, engine_world, path
    ):
        world, payer = engine_world
        if path == "bundle":
            bundle = tipped_bundle(payer, 3_000)
            tx = bundle.transactions[0]
            world.relayer.submit_bundle(bundle, world.clock.now())
            del bundle
        else:
            other = Keypair("engine-other")
            tx = Transaction.build(
                payer, [transfer(payer.pubkey, other.pubkey, 21)]
            )
            world.relayer.submit_transaction(tx, world.clock.now())
        tx_id = tx.transaction_id
        landed = weakref.ref(tx)
        del tx
        world.clock.advance(1.0)
        world.block_engine.produce_block()
        gc.collect()
        assert landed() is None
        receipt = world.ledger.get_transaction(tx_id)
        assert receipt.transaction_id == tx_id
        assert receipt.success

    def test_fees_paid_to_slot_leader(self, engine_world):
        world, payer = engine_world
        other = Keypair("engine-other")
        tx = Transaction.build(payer, [transfer(payer.pubkey, other.pubkey, 5)])
        world.relayer.submit_transaction(tx, world.clock.now())
        world.clock.advance(1.0)
        block = world.block_engine.produce_block()
        assert world.bank.lamport_balance(block.leader) > 0

    def test_land_bundle_directly(self, engine_world):
        world, payer = engine_world
        receipts = world.block_engine.land_bundle_directly(
            tipped_bundle(payer, 1_000)
        )
        assert receipts is not None and all(r.success for r in receipts)
        assert (
            world.block_engine.land_bundle_directly(
                tipped_bundle(payer, 1_000, fail=True)
            )
            is None
        )


class TestTipTracker:
    def test_p95_recorded_per_block(self, engine_world):
        world, payer = engine_world
        for tip in (1_000, 2_000, 3_000):
            world.relayer.submit_bundle(
                tipped_bundle(payer, tip), world.clock.now()
            )
        world.clock.advance(1.0)
        world.block_engine.produce_block()
        assert world.block_engine.tip_tracker.blocks_observed == 1
