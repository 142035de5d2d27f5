"""SPL-style token program: token transfers and minting.

The simulator models associated token accounts implicitly — balances are
keyed by ``(owner, mint)`` in the bank — which is the granularity the
paper's balance-delta analysis operates at.
"""

from __future__ import annotations

from repro.errors import ProgramError
from repro.solana.instruction import (
    TOKEN_PROGRAM_ID,
    AccountMeta,
    Instruction,
    encode_payload,
    int_field,
    pubkey_field,
)
from repro.solana.keys import Pubkey
from repro.solana.program import BankView


def transfer(source: Pubkey, dest: Pubkey, mint: Pubkey, amount: int) -> Instruction:
    """Build a token transfer instruction (source owner must sign)."""
    if amount <= 0:
        raise ValueError(f"token transfer amount must be positive, got {amount}")
    payload = {"op": "transfer", "mint": mint.to_base58(), "amount": amount}
    return Instruction(
        program_id=TOKEN_PROGRAM_ID,
        accounts=(
            AccountMeta(source, is_signer=True, is_writable=True),
            AccountMeta(dest, is_writable=True),
        ),
        data=encode_payload(payload),
    )


def mint_to(authority: Pubkey, dest: Pubkey, mint: Pubkey, amount: int) -> Instruction:
    """Build a mint instruction (simulation faucet; authority must sign)."""
    if amount <= 0:
        raise ValueError(f"mint amount must be positive, got {amount}")
    payload = {"op": "mint_to", "mint": mint.to_base58(), "amount": amount}
    return Instruction(
        program_id=TOKEN_PROGRAM_ID,
        accounts=(
            AccountMeta(authority, is_signer=True),
            AccountMeta(dest, is_writable=True),
        ),
        data=encode_payload(payload),
    )


def process(bank: BankView, instruction: Instruction) -> None:
    """Execute a token-program instruction.

    Raises:
        ProgramError: on malformed payloads, unknown ops, or missing signers.
    """
    payload = instruction.payload()
    op = payload.get("op")
    if len(instruction.accounts) != 2:
        raise ProgramError(
            f"token program expects 2 accounts, got {len(instruction.accounts)}"
        )
    first = instruction.accounts[0].pubkey
    second = instruction.accounts[1].pubkey
    mint = pubkey_field(payload, "mint")
    amount = int_field(payload, "amount")

    if op == "transfer":
        if not bank.is_signer(first):
            raise ProgramError(
                f"token transfer source {first.to_base58()} did not sign"
            )
        bank.transfer_tokens(first, second, mint, amount)
        bank.emit_event(
            {
                "type": "token_transfer",
                "source": first.to_base58(),
                "dest": second.to_base58(),
                "mint": payload["mint"],
                "amount": amount,
            }
        )
    elif op == "mint_to":
        if not bank.is_signer(first):
            raise ProgramError(
                f"mint authority {first.to_base58()} did not sign"
            )
        bank.mint_tokens(second, mint, amount)
    else:
        raise ProgramError(f"token program: unknown op {op!r}")
