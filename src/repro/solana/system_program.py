"""The system program: native lamport transfers.

Jito tips are plain system transfers to one of the canonical tip accounts,
so this program is on the hot path of both attack and defensive bundles.
"""

from __future__ import annotations

from repro.errors import ProgramError
from repro.solana.instruction import (
    SYSTEM_PROGRAM_ID,
    AccountMeta,
    Instruction,
    encode_payload,
    int_field,
)
from repro.solana.keys import Pubkey
from repro.solana.program import BankView


def transfer(source: Pubkey, dest: Pubkey, lamports: int) -> Instruction:
    """Build a lamport transfer instruction (source must sign)."""
    if lamports <= 0:
        raise ValueError(f"transfer amount must be positive, got {lamports}")
    payload = {"op": "transfer", "lamports": lamports}
    return Instruction(
        program_id=SYSTEM_PROGRAM_ID,
        accounts=(
            AccountMeta(source, is_signer=True, is_writable=True),
            AccountMeta(dest, is_writable=True),
        ),
        data=encode_payload(payload),
    )


def decode_transfer(instruction: Instruction) -> tuple[Pubkey, Pubkey, int]:
    """The ``(source, dest, lamports)`` of a system transfer instruction.

    The one reading of a transfer: :func:`process` executes what it
    returns, and Jito tip extraction counts exactly the transfers it
    accepts.

    Raises:
        ProgramError: on a malformed payload, an op other than
            ``transfer``, an account list that is not ``[source, dest]``,
            or a lamport amount that is not a non-negative integer.
    """
    payload = instruction.payload()
    op = payload.get("op")
    if op != "transfer":
        raise ProgramError(f"system program: unknown op {op!r}")
    if len(instruction.accounts) != 2:
        raise ProgramError(
            f"system transfer expects 2 accounts, got {len(instruction.accounts)}"
        )
    source, dest = instruction.accounts
    return source.pubkey, dest.pubkey, int_field(payload, "lamports")


def process(bank: BankView, instruction: Instruction) -> None:
    """Execute a system-program instruction.

    Raises:
        ProgramError: on malformed payloads or missing signatures; balance
            failures surface as :class:`InsufficientFundsError` from the bank.
    """
    source, dest, lamports = decode_transfer(instruction)
    if not bank.is_signer(source):
        raise ProgramError(
            f"system transfer source {source.to_base58()} did not sign"
        )
    bank.transfer_lamports(source, dest, lamports)
    bank.emit_event(
        {
            "type": "transfer",
            "source": source.to_base58(),
            "dest": dest.to_base58(),
            "lamports": lamports,
        }
    )
