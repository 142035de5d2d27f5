"""Program-side view of the bank, shared by all native programs.

Programs never touch bank internals; they act through :class:`BankView`,
which journals every mutation so failed transactions roll back atomically.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.solana.instruction import Instruction
from repro.solana.keys import Pubkey


class BankView(Protocol):
    """The mutation surface the bank exposes to program processors."""

    def lamport_balance(self, pubkey: Pubkey) -> int:
        """Lamports held by an account (0 if the account is unknown)."""

    def transfer_lamports(self, source: Pubkey, dest: Pubkey, lamports: int) -> None:
        """Move lamports between accounts, enforcing balance checks."""

    def token_balance(self, owner: Pubkey, mint: Pubkey) -> int:
        """Base-unit token balance of ``owner`` for ``mint``."""

    def transfer_tokens(
        self, source: Pubkey, dest: Pubkey, mint: Pubkey, amount: int
    ) -> None:
        """Move tokens between owners, enforcing balance checks."""

    def mint_tokens(self, dest: Pubkey, mint: Pubkey, amount: int) -> None:
        """Create new tokens (simulation-level faucet / pool seeding)."""

    def is_signer(self, pubkey: Pubkey) -> bool:
        """Whether ``pubkey`` signed the currently executing transaction."""

    def emit_event(self, event: dict) -> None:
        """Record a structured event (swap, transfer) on the receipt."""


ProgramProcessor = Callable[[BankView, Instruction], None]
"""A native program entry point: execute one instruction against the bank."""
