"""Blocks: the per-slot unit of the ledger."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.constants import SLOT_DURATION_MS
from repro.solana.bank import TransactionReceipt
from repro.solana.keys import Pubkey


@dataclass
class Block:
    """One produced slot: leader, timestamp, and the landed transactions.

    A block records receipts only: every ledger reader needs a landed
    transaction's receipt and the block's metadata, never its signed
    message.

    Crucially — as the paper stresses — a block records *no trace of Jito
    bundling*: transactions that entered via a bundle are indistinguishable
    from native ones on the final ledger. Bundle structure only exists in
    Jito-side records (see :mod:`repro.explorer`).
    """

    slot: int
    leader: Pubkey
    parent_hash: str
    unix_timestamp: float
    transactions: list[TransactionReceipt] = field(default_factory=list)

    @property
    def blockhash(self) -> str:
        """Hash chaining this block to its parent and contents."""
        digest = hashlib.sha256()
        digest.update(self.parent_hash.encode())
        digest.update(str(self.slot).encode())
        digest.update(self.leader.to_base58().encode())
        for receipt in self.transactions:
            digest.update(receipt.transaction_id.encode())
        return digest.hexdigest()

    @property
    def transaction_count(self) -> int:
        """Number of transactions included in the block."""
        return len(self.transactions)

    def end_timestamp(self) -> float:
        """Unix time at which the 400 ms slot window closes."""
        return self.unix_timestamp + SLOT_DURATION_MS / 1000.0
