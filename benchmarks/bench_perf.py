"""Performance micro-benchmarks for the hot paths.

Not figures from the paper — these track the substrate's own throughput:
AMM quoting, bank execution, bundle landing, detection, and base58.
"""

import pytest

from repro.core import SandwichDetector
from repro.dex.pool import quote_constant_product
from repro.jito.bundle import Bundle
from repro.jito.tips import build_tip_instruction
from repro.solana.bank import Bank
from repro.solana.keys import Keypair
from repro.solana.system_program import transfer
from repro.solana.transaction import Transaction
from repro.core.criteria import BundleView
from repro.explorer.models import BundleRecord, TransactionRecord
from repro.utils.base58 import b58decode, b58encode


def _swap_record(tx_id, signer, mint_in, mint_out, amount_in, amount_out):
    return TransactionRecord(
        transaction_id=tx_id,
        slot=1,
        block_time=0.0,
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


def canonical_sandwich_view() -> BundleView:
    records = [
        _swap_record("t1", "A", "SOL", "MEME", 1_000, 1_000_000),
        _swap_record("t2", "B", "SOL", "MEME", 10_000, 9_000_000),
        _swap_record("t3", "A", "MEME", "SOL", 1_000_000, 1_100),
    ]
    bundle = BundleRecord(
        bundle_id="bench-bundle",
        slot=1,
        landed_at=0.0,
        tip_lamports=2_000_000,
        transaction_ids=("t1", "t2", "t3"),
    )
    return BundleView.build(bundle, records)


@pytest.fixture
def funded_pair():
    bank = Bank()
    alice, bob = Keypair("perf-a"), Keypair("perf-b")
    bank.fund(alice, 10**18)
    return bank, alice, bob


def test_amm_quote_throughput(benchmark):
    benchmark(quote_constant_product, 200 * 10**9, 10**15, 10**9, 25)


def test_transaction_build_and_sign(benchmark, funded_pair):
    _, alice, bob = funded_pair

    def build():
        return Transaction.build(alice, [transfer(alice.pubkey, bob.pubkey, 1)])

    benchmark(build)


def test_bank_transfer_execution(benchmark, funded_pair):
    bank, alice, bob = funded_pair

    def execute():
        tx = Transaction.build(alice, [transfer(alice.pubkey, bob.pubkey, 1)])
        receipt = bank.execute_transaction(tx)
        assert receipt.success

    benchmark(execute)


def test_atomic_bundle_execution(benchmark, funded_pair):
    bank, alice, bob = funded_pair

    def execute():
        txs = [
            Transaction.build(
                alice,
                [
                    transfer(alice.pubkey, bob.pubkey, 1),
                    build_tip_instruction(alice.pubkey, 1_000),
                ],
            )
            for _ in range(3)
        ]
        receipts = bank.execute_atomic(txs)
        assert all(r.success for r in receipts)

    benchmark(execute)


def test_bundle_id_derivation(benchmark, funded_pair):
    _, alice, bob = funded_pair
    txs = [
        Transaction.build(alice, [transfer(alice.pubkey, bob.pubkey, 1)])
        for _ in range(3)
    ]
    benchmark(lambda: Bundle(transactions=tuple(txs)).bundle_id)


def test_detector_throughput(benchmark):
    view = canonical_sandwich_view()
    detector = SandwichDetector()
    result = benchmark(detector.detect_view, view)
    assert result is not None


def test_columnar_criteria_throughput(benchmark):
    """The vectorized criteria pass over a prepared 512-candidate block —
    the columnar detection core's hot loop, per whole-block call (compare
    with :func:`test_detector_throughput`, which is per bundle). Criterion
    1 is decided before a block is built, so the block evaluates 2-5.
    """
    pytest.importorskip("numpy")
    from repro.columnar.blocks import (
        BundleBlock,
        CandidateBlock,
        tx_features,
    )
    from repro.columnar.criteria import evaluate_block

    records = [
        _swap_record("t1", "A", "SOL", "MEME", 1_000, 1_000_000),
        _swap_record("t2", "B", "SOL", "MEME", 10_000, 9_000_000),
        _swap_record("t3", "A", "MEME", "SOL", 1_000_000, 1_100),
    ]
    triple = tuple(
        tx_features(record.signer, record.events, record.token_deltas)
        for record in records
    )
    bundle = BundleRecord(
        bundle_id="bench-bundle",
        slot=1,
        landed_at=0.0,
        tip_lamports=2_000_000,
        transaction_ids=("t1", "t2", "t3"),
    )
    count = 512
    block = BundleBlock.from_records([bundle] * count)
    candidates = CandidateBlock(
        block=block, indexes=list(range(count)), features=[triple] * count
    ).prepare()
    verdicts = benchmark(evaluate_block, candidates)
    assert len(verdicts.detected_indexes) == count


def test_base58_round_trip(benchmark):
    data = bytes(range(32))

    def round_trip():
        assert b58decode(b58encode(data)) == data

    benchmark(round_trip)
