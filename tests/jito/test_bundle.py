"""Bundle construction and identity tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import MAX_BUNDLE_SIZE
from repro.errors import (
    BundleTooLargeError,
    DuplicateTransactionError,
    EmptyBundleError,
)
from repro.jito.bundle import Bundle
from repro.jito.tips import build_tip_instruction, extract_tip_lamports
from repro.solana.fees import set_compute_unit_price
from repro.solana.keys import Keypair
from repro.solana.system_program import transfer
from repro.solana.transaction import Transaction


@pytest.fixture
def payer():
    return Keypair("bundle-payer")


def make_tx(payer, amount=100):
    other = Keypair("bundle-other")
    return Transaction.build(payer, [transfer(payer.pubkey, other.pubkey, amount)])


class TestBundleConstruction:
    def test_single_transaction_bundle(self, payer):
        bundle = Bundle.of(make_tx(payer))
        assert len(bundle) == 1

    def test_max_size_enforced(self, payer):
        txs = [make_tx(payer) for _ in range(MAX_BUNDLE_SIZE + 1)]
        with pytest.raises(BundleTooLargeError):
            Bundle(transactions=tuple(txs))

    def test_five_transactions_allowed(self, payer):
        bundle = Bundle(
            transactions=tuple(make_tx(payer) for _ in range(MAX_BUNDLE_SIZE))
        )
        assert len(bundle) == MAX_BUNDLE_SIZE

    def test_empty_rejected(self):
        with pytest.raises(EmptyBundleError):
            Bundle(transactions=())

    def test_duplicate_rejected(self, payer):
        tx = make_tx(payer)
        with pytest.raises(DuplicateTransactionError):
            Bundle.of(tx, tx)


class TestBundleIdentity:
    def test_bundle_id_deterministic_over_tx_ids(self, payer):
        tx1, tx2 = make_tx(payer), make_tx(payer)
        assert Bundle.of(tx1, tx2).bundle_id == Bundle.of(tx1, tx2).bundle_id

    def test_bundle_id_order_sensitive(self, payer):
        tx1, tx2 = make_tx(payer), make_tx(payer)
        assert Bundle.of(tx1, tx2).bundle_id != Bundle.of(tx2, tx1).bundle_id

    def test_bundle_id_is_hex_digest(self, payer):
        bundle = Bundle.of(make_tx(payer))
        assert len(bundle.bundle_id) == 64
        int(bundle.bundle_id, 16)  # must parse as hex

    def test_transaction_ids_in_order(self, payer):
        tx1, tx2 = make_tx(payer), make_tx(payer)
        bundle = Bundle.of(tx1, tx2)
        assert bundle.transaction_ids == [
            tx1.transaction_id,
            tx2.transaction_id,
        ]


class TestBundleTip:
    def test_tip_summed_across_transactions(self, payer):
        tx1 = Transaction.build(
            payer, [build_tip_instruction(payer.pubkey, 3_000)]
        )
        tx2 = Transaction.build(
            payer, [build_tip_instruction(payer.pubkey, 2_000, 1)]
        )
        assert Bundle.of(tx1, tx2).tip_lamports == 5_000

    def test_tipless_bundle_has_zero_tip(self, payer):
        assert Bundle.of(make_tx(payer)).tip_lamports == 0


#: One member transaction's instructions, as (kind, lamports, account) draws:
#: tips to any of the eight tip accounts, plain transfers, priority fees.
member_instructions = st.lists(
    st.tuples(
        st.sampled_from(["tip", "transfer", "priority"]),
        st.integers(min_value=1_000, max_value=10**12),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=4,
)


class TestCachedTip:
    @settings(max_examples=60, deadline=None)
    @given(members=st.lists(member_instructions, min_size=1, max_size=5))
    def test_cached_tip_is_the_sum_over_members(self, members):
        other = Keypair("bundle-other")
        transactions = []
        for index, draws in enumerate(members):
            payer = Keypair(f"bundle-member-{index}")
            instructions = []
            for kind, lamports, account in draws:
                if kind == "tip":
                    ix = build_tip_instruction(payer.pubkey, lamports, account)
                elif kind == "transfer":
                    ix = transfer(payer.pubkey, other.pubkey, lamports)
                else:
                    ix = set_compute_unit_price(lamports)
                instructions.append(ix)
            transactions.append(Transaction.build(payer, instructions))
        bundle = Bundle(transactions=tuple(transactions))
        assert bundle.tip_lamports == sum(
            extract_tip_lamports(tx) for tx in transactions
        )
        assert bundle.tip_lamports == sum(
            lamports for draws in members
            for kind, lamports, _ in draws if kind == "tip"
        )
