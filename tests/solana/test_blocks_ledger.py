"""Block and ledger tests."""

import pytest

from repro.errors import TransactionError
from repro.solana.bank import Bank
from repro.solana.blocks import Block
from repro.solana.keys import Keypair, Pubkey
from repro.solana.ledger import GENESIS_HASH, Ledger
from repro.solana.system_program import transfer
from repro.solana.transaction import Transaction

LEADER = Pubkey.from_seed("leader")


def make_block(slot: int, n_txs: int = 1, parent: str = GENESIS_HASH) -> Block:
    bank = Bank()
    alice, bob = Keypair(f"alice-{slot}"), Keypair(f"bob-{slot}")
    bank.fund(alice, 10**9)
    block = Block(
        slot=slot, leader=LEADER, parent_hash=parent, unix_timestamp=slot * 0.4
    )
    for _ in range(n_txs):
        tx = Transaction.build(alice, [transfer(alice.pubkey, bob.pubkey, 10)])
        block.transactions.append(bank.execute_transaction(tx))
    return block


class TestBlock:
    def test_blockhash_depends_on_contents(self):
        a = make_block(1, n_txs=1)
        b = make_block(1, n_txs=2)
        assert a.blockhash != b.blockhash

    def test_blockhash_chains_parent(self):
        a = make_block(1)
        b = make_block(1, parent="other-parent")
        assert a.blockhash != b.blockhash

    def test_end_timestamp_is_slot_duration_later(self):
        block = make_block(5)
        assert block.end_timestamp() == pytest.approx(block.unix_timestamp + 0.4)

    def test_transaction_count(self):
        assert make_block(1, n_txs=3).transaction_count == 3


class TestLedger:
    def test_append_and_lookup(self):
        ledger = Ledger()
        block = make_block(1)
        ledger.append(block)
        assert len(ledger) == 1
        assert ledger.block_at_slot(1) is block
        assert ledger.block_at_slot(2) is None

    def test_tip_tracking(self):
        ledger = Ledger()
        assert ledger.tip_slot == -1
        assert ledger.tip_hash == GENESIS_HASH
        block = make_block(3)
        ledger.append(block)
        assert ledger.tip_slot == 3
        assert ledger.tip_hash == block.blockhash

    def test_slot_regression_rejected(self):
        ledger = Ledger()
        ledger.append(make_block(5))
        with pytest.raises(TransactionError, match="does not advance"):
            ledger.append(make_block(5))

    def test_transaction_index(self):
        ledger = Ledger()
        block = make_block(1, n_txs=2)
        ledger.append(block)
        tx_id = block.transactions[1].transaction_id
        found = ledger.get_transaction(tx_id)
        assert found is block.transactions[1]
        assert ledger.get_transaction("missing") is None

    def test_duplicate_transaction_rejected(self):
        ledger = Ledger()
        block = make_block(1)
        ledger.append(block)
        duplicate = Block(
            slot=2,
            leader=LEADER,
            parent_hash=block.blockhash,
            unix_timestamp=0.8,
            transactions=list(block.transactions),
        )
        with pytest.raises(TransactionError, match="duplicate"):
            ledger.append(duplicate)

    def test_transaction_count_and_iteration(self):
        ledger = Ledger()
        ledger.append(make_block(1, n_txs=2))
        ledger.append(make_block(2, n_txs=3))
        assert ledger.transaction_count() == 5
        landed = [
            receipt.transaction_id
            for block in ledger.blocks()
            for receipt in block.transactions
        ]
        assert len(set(landed)) == 5
        assert len(list(ledger.blocks())) == 2

    @pytest.mark.parametrize("repeat", ["on_ledger", "within_block"])
    def test_refused_block_indexes_nothing(self, repeat):
        ledger = Ledger()
        first = make_block(1)
        ledger.append(first)
        fresh = make_block(3).transactions[0]
        repeated = first.transactions[0] if repeat == "on_ledger" else fresh
        refused = Block(
            slot=3,
            leader=LEADER,
            parent_hash=first.blockhash,
            unix_timestamp=1.2,
            transactions=[fresh, repeated],
        )
        with pytest.raises(TransactionError, match="duplicate"):
            ledger.append(refused)
        assert ledger.transaction_count() == 1
        assert ledger.get_transaction(fresh.transaction_id) is None
        assert ledger.tip_slot == 1
        accepted = Block(
            slot=3,
            leader=LEADER,
            parent_hash=first.blockhash,
            unix_timestamp=1.2,
            transactions=[fresh],
        )
        ledger.append(accepted)
        assert ledger.get_transaction(fresh.transaction_id) is fresh
