"""A malformed instruction payload fails its transaction, never the bank.

Each case runs ``execute_atomic([ok_transfer, bad])``: the valid transfer
executes first, then ``bad`` must end the receipts in a failure and roll
the whole sequence back — balances, fees and the journal as before.
"""

from __future__ import annotations

import json

import pytest

from repro.dex.swap import DexProgram, PoolRegistry
from repro.jito.bundle import Bundle
from repro.jito.tips import extract_tip_lamports, tip_accounts
from repro.solana import system_program
from repro.solana.bank import Bank
from repro.solana.instruction import (
    COMPUTE_BUDGET_PROGRAM_ID,
    DEX_PROGRAM_ID,
    SYSTEM_PROGRAM_ID,
    TOKEN_PROGRAM_ID,
    AccountMeta,
    Instruction,
)
from repro.solana.keys import Keypair, Pubkey
from repro.solana.tokens import Mint
from repro.solana.transaction import Transaction

PAYER = Keypair("malformed-payer")
DEST = Pubkey.from_seed("malformed-dest")
MINT = Mint.from_symbol("MALF")


def _json(document) -> bytes:
    return json.dumps(document).encode()


#: (program, payload bytes) pairs, each malformed in one way.
MALFORMED = {
    "compute-budget-not-json": (COMPUTE_BUDGET_PROGRAM_ID, b"not-json"),
    "compute-budget-price-missing": (
        COMPUTE_BUDGET_PROGRAM_ID,
        _json({"op": "set_compute_unit_price"}),
    ),
    "system-lamports-missing": (SYSTEM_PROGRAM_ID, _json({"op": "transfer"})),
    "system-not-an-object": (SYSTEM_PROGRAM_ID, _json([1])),
    "token-mint-missing": (
        TOKEN_PROGRAM_ID,
        _json({"op": "transfer", "amount": 5}),
    ),
    "dex-fields-missing": (DEX_PROGRAM_ID, _json({"op": "swap"})),
    "dex-pool-not-base58": (
        DEX_PROGRAM_ID,
        _json(
            {
                "op": "swap",
                "pool": "0OIl",
                "mint_in": MINT.address.to_base58(),
                "amount_in": 5,
                "min_amount_out": 0,
            }
        ),
    ),
}


def _bank() -> Bank:
    bank = Bank()
    bank.register_program(DEX_PROGRAM_ID, DexProgram(PoolRegistry()))
    bank.set_fee_collector(Pubkey.from_seed("malformed-leader"))
    bank.fund(PAYER, 1_000_000_000)
    bank.fund_tokens(PAYER.pubkey, MINT.address, 1_000)
    return bank


def _bad_transaction(program_id: Pubkey, data: bytes) -> Transaction:
    instruction = Instruction(
        program_id=program_id,
        accounts=(
            AccountMeta(PAYER.pubkey, is_signer=True, is_writable=True),
            AccountMeta(DEST, is_writable=True),
        ),
        data=data,
    )
    return Transaction.build(PAYER, [instruction])


def _state(bank: Bank) -> tuple:
    lamports = {
        key: bank.lamport_balance(key)
        for key in (PAYER.pubkey, DEST, Pubkey.from_seed("malformed-leader"))
    }
    tokens = {
        key: bank.token_balance(key, MINT.address)
        for key in (PAYER.pubkey, DEST)
    }
    return lamports, tokens, list(bank._journal)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_payload_fails_and_rolls_back(case):
    program_id, data = MALFORMED[case]
    bank = _bank()
    before = _state(bank)
    ok_transfer = Transaction.build(
        PAYER, [system_program.transfer(PAYER.pubkey, DEST, 1_000)]
    )
    receipts = bank.execute_atomic(
        [ok_transfer, _bad_transaction(program_id, data)]
    )
    assert [receipt.success for receipt in receipts] == [True, False]
    assert "payload" in receipts[-1].error
    assert _state(bank) == before
    assert bank.transactions_executed == 0


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_bundle_with_a_malformed_member_still_constructs(case):
    program_id, data = MALFORMED[case]
    tip = Transaction.build(
        PAYER,
        [system_program.transfer(PAYER.pubkey, tip_accounts()[0], 5_000)],
    )
    bundle = Bundle.of(tip, _bad_transaction(program_id, data))
    assert bundle.tip_lamports == 5_000


@pytest.mark.parametrize(
    "payload",
    [
        {"op": "transfer"},
        {"op": "transfer", "lamports": "5000"},
        {"op": "transfer", "lamports": 5000.0},
        {"op": "transfer", "lamports": True},
        {"op": "transfer", "lamports": -5000},
        {"op": "burn", "lamports": 5000},
    ],
)
def test_tip_extraction_counts_only_transfers_the_program_accepts(payload):
    # A tip-account transfer the system program would refuse is no tip:
    # the transaction carrying it fails, so it never pays anything.
    instruction = Instruction(
        program_id=SYSTEM_PROGRAM_ID,
        accounts=(
            AccountMeta(PAYER.pubkey, is_signer=True, is_writable=True),
            AccountMeta(tip_accounts()[0], is_writable=True),
        ),
        data=_json(payload),
    )
    tx = Transaction.build(PAYER, [instruction])
    assert extract_tip_lamports(tx) == 0
    receipt = _bank().execute_transaction(tx)
    assert not receipt.success
