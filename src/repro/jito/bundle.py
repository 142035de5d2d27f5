"""Jito bundles: up to five transactions, atomic, in submission order."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.constants import MAX_BUNDLE_SIZE
from repro.errors import (
    BundleTooLargeError,
    DuplicateTransactionError,
    EmptyBundleError,
)
from repro.jito.tips import extract_tip_lamports
from repro.solana.transaction import Transaction


@dataclass(frozen=True)
class Bundle:
    """An ordered, atomic group of transactions submitted to Jito.

    Bundles carry their own identifier (the ``bundleId`` of the paper),
    distinct from the member ``transactionId``s, and — critically for the
    measurement methodology — the bundle id never reaches the Solana ledger.
    """

    transactions: tuple[Transaction, ...]
    bundle_id: str = field(init=False)
    #: Total lamports the bundle pays to Jito tip accounts, computed once at
    #: construction (members are signed, so their instructions are final).
    tip_lamports: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.transactions:
            raise EmptyBundleError("a bundle needs at least one transaction")
        if len(self.transactions) > MAX_BUNDLE_SIZE:
            raise BundleTooLargeError(
                f"bundles hold at most {MAX_BUNDLE_SIZE} transactions, "
                f"got {len(self.transactions)}"
            )
        tx_ids = [tx.transaction_id for tx in self.transactions]
        if len(set(tx_ids)) != len(tx_ids):
            raise DuplicateTransactionError(
                "a transaction appears twice in the bundle"
            )
        digest = hashlib.sha256()
        for tx_id in tx_ids:
            digest.update(tx_id.encode())
        object.__setattr__(self, "bundle_id", digest.hexdigest())
        object.__setattr__(
            self,
            "tip_lamports",
            sum(extract_tip_lamports(tx) for tx in self.transactions),
        )

    @classmethod
    def of(cls, *transactions: Transaction) -> "Bundle":
        """Convenience constructor from positional transactions."""
        return cls(transactions=tuple(transactions))

    def __len__(self) -> int:
        return len(self.transactions)

    @property
    def transaction_ids(self) -> list[str]:
        """Member transaction ids, in bundle order."""
        return [tx.transaction_id for tx in self.transactions]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Bundle({self.bundle_id[:10]}, n={len(self)}, "
            f"tip={self.tip_lamports})"
        )
