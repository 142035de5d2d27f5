"""A Solana RPC facade over the simulated ledger, with provider limits.

The paper's methodology exists because the obvious alternative is
infeasible: "existing RPC providers (Helius, QuickNode, Bitquery,
ChainStack, etc.) place restrictions on API calls and 'compute units' far
below what is necessary for pulling this type of bulk transaction data"
(Section 3.1). This facade exposes the ledger the way providers do —
per-block and per-transaction queries, metered in compute units and
rate-limited — so the cost of ledger-scanning approaches can be measured
against the Jito Explorer methodology instead of asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BadRequestError, RateLimitedError
from repro.explorer.models import TransactionRecord
from repro.explorer.service import record_from_receipt
from repro.solana.ledger import Ledger
from repro.utils.ratelimit import ClientRateLimiter
from repro.utils.simtime import SimClock


@dataclass(frozen=True)
class RpcConfig:
    """Provider-style limits, modelled on public tier sheets.

    Compute-unit costs follow the shape providers use: block fetches cost
    much more than single-transaction lookups, and monthly plans cap total
    units.
    """

    requests_per_second: float = 10.0
    burst_capacity: float = 50.0
    block_cost_units: int = 100
    transaction_cost_units: int = 10
    slot_cost_units: int = 1


@dataclass
class RpcUsage:
    """Metering the facade accumulates per client."""

    requests: int = 0
    compute_units: int = 0


class SolanaRpc:
    """getBlock / getTransaction / getSlot against the simulated ledger."""

    def __init__(
        self,
        ledger: Ledger,
        clock: SimClock,
        config: RpcConfig | None = None,
    ) -> None:
        self._ledger = ledger
        self._config = config or RpcConfig()
        self._limiter = ClientRateLimiter(
            rate=self._config.requests_per_second,
            burst=self._config.burst_capacity,
            time_fn=clock.now,
        )
        self._usage: dict[str, RpcUsage] = {}

    @property
    def config(self) -> RpcConfig:
        """The provider limits in force."""
        return self._config

    def usage(self, client_id: str = "anon") -> RpcUsage:
        """Requests and compute units consumed by one client."""
        return self._usage.setdefault(client_id, RpcUsage())

    def _admit(self, client_id: str, cost_units: int) -> None:
        if not self._limiter.admit(client_id).allowed:
            raise RateLimitedError(f"RPC rate limit hit for {client_id!r}")
        usage = self.usage(client_id)
        usage.requests += 1
        usage.compute_units += cost_units

    # --- RPC methods ------------------------------------------------------

    def get_slot(self, client_id: str = "anon") -> int:
        """The latest finalized slot."""
        self._admit(client_id, self._config.slot_cost_units)
        return self._ledger.tip_slot

    def get_block(
        self, slot: int, client_id: str = "anon"
    ) -> list[TransactionRecord] | None:
        """All transactions of a block (None for skipped slots)."""
        if slot < 0:
            raise BadRequestError(f"slot must be non-negative, got {slot}")
        self._admit(client_id, self._config.block_cost_units)
        block = self._ledger.block_at_slot(slot)
        if block is None:
            return None
        return [
            record_from_receipt(receipt, block.unix_timestamp)
            for receipt in block.transactions
        ]

    def get_transaction(
        self, tx_id: str, client_id: str = "anon"
    ) -> TransactionRecord | None:
        """One transaction by id (None if unknown)."""
        if not tx_id:
            raise BadRequestError("transaction id is empty")
        self._admit(client_id, self._config.transaction_cost_units)
        receipt = self._ledger.get_transaction(tx_id)
        if receipt is None:
            return None
        block = self._ledger.block_at_slot(receipt.slot)
        block_time = block.unix_timestamp if block else 0.0
        return record_from_receipt(receipt, block_time)

    def block_slots(self, client_id: str = "anon") -> list[int]:
        """All produced slots (a cheap index call, costed like getSlot)."""
        self._admit(client_id, self._config.slot_cost_units)
        return [block.slot for block in self._ledger.blocks()]
