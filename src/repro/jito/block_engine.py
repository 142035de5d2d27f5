"""The Jito block engine: bundle auction, atomic execution, block assembly.

Bundles are landed in tip order (highest first — tips are the auction
currency, which is why the paper finds sandwich bundles tipping three orders
of magnitude above ordinary bundles). A bundle whose member transaction
fails is dropped wholesale, nullifying the attacker's risk exactly as the
paper describes. The engine also keeps the bundle log — the only place
bundle structure survives, later served by the explorer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constants import SLOT_DURATION_MS
from repro.jito.bundle import Bundle
from repro.jito.relayer import Relayer
from repro.jito.tips import TipPercentileTracker
from repro.solana.bank import Bank
from repro.solana.blocks import Block
from repro.solana.leader_schedule import LeaderSchedule, Validator
from repro.solana.ledger import Ledger
from repro.utils.simtime import SimClock


@dataclass(frozen=True)
class BundleOutcome:
    """A landed bundle as recorded by Jito's own infrastructure.

    This mirrors the fields the paper could obtain from the Jito Explorer
    API: the bundleId, the member transactionIds, and the tip — but not the
    transactions' contents.
    """

    bundle_id: str
    slot: int
    landed_at: float
    tip_lamports: int
    transaction_ids: tuple[str, ...]
    submitted_at: float = 0.0

    @property
    def num_transactions(self) -> int:
        """Bundle length (1 to 5)."""
        return len(self.transaction_ids)

    @property
    def landing_latency(self) -> float:
        """Seconds from submission to landing (simulation ground truth;
        the real explorer does not expose submission times)."""
        return max(self.landed_at - self.submitted_at, 0.0)


@dataclass
class EngineStats:
    """Counters for engine behaviour across the run."""

    blocks_produced: int = 0
    bundles_landed: int = 0
    bundles_dropped: int = 0
    bundles_dropped_duplicate: int = 0
    native_landed: int = 0
    native_dropped: int = 0
    native_dropped_duplicate: int = 0
    bundles_deferred: int = 0
    landed_by_length: dict[int, int] = field(default_factory=dict)


class BlockEngine:
    """Produces blocks from queued bundles and native transactions."""

    def __init__(
        self,
        bank: Bank,
        ledger: Ledger,
        relayer: Relayer,
        schedule: LeaderSchedule,
        clock: SimClock,
    ) -> None:
        self._bank = bank
        self._ledger = ledger
        self._relayer = relayer
        self._schedule = schedule
        self._clock = clock
        self._bundle_log: list[BundleOutcome] = []
        self._landed_by_id: dict[str, BundleOutcome] = {}
        self._tip_tracker = TipPercentileTracker()
        self.stats = EngineStats()

    @property
    def bundle_log(self) -> list[BundleOutcome]:
        """All landed bundles, in landing order (the explorer's source)."""
        return self._bundle_log

    @property
    def tip_tracker(self) -> TipPercentileTracker:
        """Per-block tip percentile statistics."""
        return self._tip_tracker

    def get_landed_bundle(self, bundle_id: str) -> BundleOutcome | None:
        """Look up one landed bundle by id (None if never landed)."""
        return self._landed_by_id.get(bundle_id)

    def current_slot(self) -> int:
        """The slot implied by the simulated clock (strictly increasing)."""
        implied = int(self._clock.elapsed() * 1000 // SLOT_DURATION_MS)
        return max(implied, self._ledger.tip_slot + 1)

    def produce_block(self) -> Block:
        """Produce one block at the current slot.

        A Jito-running leader lands queued bundles in descending tip order,
        then native transactions; a non-Jito leader processes only native
        flow and leaves bundles queued for the next Jito leader.
        """
        slot = self.current_slot()
        leader = self._schedule.leader_for_slot(slot)
        self._bank.set_slot(slot)
        self._bank.set_fee_collector(leader.identity)
        timestamp = self._clock.now()
        block = Block(
            slot=slot,
            leader=leader.identity,
            parent_hash=self._ledger.tip_hash,
            unix_timestamp=timestamp,
        )

        if leader.runs_jito:
            self._land_bundles(block, timestamp)
        else:
            self.stats.bundles_deferred += self._relayer.pending_bundle_count()

        for tx in self._relayer.mempool.drain():
            if self._already_landed(tx.transaction_id, block):
                # Replay protection: a transaction lands exactly once. A
                # victim consumed by a sandwich bundle earlier in this very
                # block is the common case.
                self.stats.native_dropped_duplicate += 1
                continue
            receipt = self._bank.execute_transaction(tx)
            if receipt.success:
                block.transactions.append(receipt)
                self.stats.native_landed += 1
            else:
                self.stats.native_dropped += 1

        self._ledger.append(block)
        self.stats.blocks_produced += 1
        return block

    def _already_landed(self, tx_id: str, block: Block) -> bool:
        if self._ledger.get_transaction(tx_id) is not None:
            return True
        return any(
            receipt.transaction_id == tx_id for receipt in block.transactions
        )

    def _land_bundles(self, block: Block, timestamp: float) -> None:
        queued = self._relayer.take_bundles()
        # Tip-ordered auction: highest tip lands first; ties by submit time.
        queued.sort(key=lambda item: (-item[0].tip_lamports, item[1]))
        landed_tips: list[int] = []
        block_tx_ids: set[str] = set()
        for bundle, submitted_at in queued:
            if any(
                tx_id in block_tx_ids
                or self._ledger.get_transaction(tx_id) is not None
                for tx_id in bundle.transaction_ids
            ):
                # Replay protection: the bundle contains a transaction that
                # already landed — e.g. a rival's sandwich claimed the same
                # victim and outbid this one. Dropped risk-free.
                self.stats.bundles_dropped_duplicate += 1
                continue
            receipts = self._bank.execute_atomic(bundle.transactions)
            if receipts and all(r.success for r in receipts):
                block.transactions.extend(receipts)
                outcome = BundleOutcome(
                    bundle_id=bundle.bundle_id,
                    slot=block.slot,
                    landed_at=timestamp,
                    tip_lamports=bundle.tip_lamports,
                    transaction_ids=tuple(bundle.transaction_ids),
                    submitted_at=submitted_at,
                )
                self._bundle_log.append(outcome)
                self._landed_by_id[outcome.bundle_id] = outcome
                block_tx_ids.update(bundle.transaction_ids)
                landed_tips.append(bundle.tip_lamports)
                self.stats.bundles_landed += 1
                length = len(bundle)
                self.stats.landed_by_length[length] = (
                    self.stats.landed_by_length.get(length, 0) + 1
                )
            else:
                self.stats.bundles_dropped += 1
        self._tip_tracker.record_block(landed_tips)

    def land_bundle_directly(self, bundle: Bundle) -> list | None:
        """Execute a bundle immediately outside block production (tests).

        Returns the receipts on success, or None if the bundle failed and was
        rolled back.
        """
        receipts = self._bank.execute_atomic(bundle.transactions)
        if receipts and all(r.success for r in receipts):
            return receipts
        return None
