"""The ledger: an append-only chain of blocks with lookup indexes."""

from __future__ import annotations

from typing import Iterator

from repro.errors import TransactionError
from repro.solana.bank import TransactionReceipt
from repro.solana.blocks import Block

GENESIS_HASH = "genesis"


class Ledger:
    """Append-only block store with a transaction-id index.

    This is the "final Solana ledger" of the paper: the ground truth the
    detail endpoint serves transaction contents from, and the substrate the
    bundle-blind baseline detector scans.
    """

    def __init__(self) -> None:
        self._blocks: list[Block] = []
        self._by_slot: dict[int, Block] = {}
        self._tx_index: dict[str, tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def tip_hash(self) -> str:
        """Blockhash of the latest block (genesis sentinel when empty)."""
        return self._blocks[-1].blockhash if self._blocks else GENESIS_HASH

    @property
    def tip_slot(self) -> int:
        """Slot of the latest block (-1 when empty)."""
        return self._blocks[-1].slot if self._blocks else -1

    def append(self, block: Block) -> None:
        """Append a block; slots must strictly increase.

        The whole block is checked before any of it is indexed, so a refused
        block leaves the ledger as it was.

        Raises:
            TransactionError: on slot regression or a transaction id that is
                already on the ledger or repeats within the block.
        """
        if block.slot <= self.tip_slot:
            raise TransactionError(
                f"block slot {block.slot} does not advance past {self.tip_slot}"
            )
        index: dict[str, tuple[int, int]] = {}
        for position, receipt in enumerate(block.transactions):
            tx_id = receipt.transaction_id
            if tx_id in self._tx_index or tx_id in index:
                raise TransactionError(f"duplicate transaction id {tx_id[:12]}")
            index[tx_id] = (block.slot, position)
        self._tx_index.update(index)
        self._blocks.append(block)
        self._by_slot[block.slot] = block

    def block_at_slot(self, slot: int) -> Block | None:
        """The block produced at ``slot``, or None for skipped slots."""
        return self._by_slot.get(slot)

    def blocks(self) -> Iterator[Block]:
        """Iterate blocks in chain order."""
        return iter(self._blocks)

    def get_transaction(self, tx_id: str) -> TransactionReceipt | None:
        """The receipt of a landed transaction, by id."""
        location = self._tx_index.get(tx_id)
        if location is None:
            return None
        slot, position = location
        return self._by_slot[slot].transactions[position]

    def transaction_count(self) -> int:
        """Total transactions across all blocks."""
        return len(self._tx_index)
