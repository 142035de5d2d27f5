"""An Ethereum-style sandwich matcher, ported to Solana blocks.

Qin et al. (2022) detect sandwiches on Ethereum by matching a front-run buy
and a back-run sell by the same account on the same market within one block,
with a victim trade in between — *without* requiring the three transactions
to be adjacent. On Solana this is the best a bundle-blind observer can do,
and it trades precision for recall relative to the adjacent-window scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.trades import TradeLeg, extract_trades
from repro.explorer.service import record_from_receipt
from repro.solana.ledger import Ledger


@dataclass(frozen=True)
class EthStyleCandidate:
    """A matched front-run / victim / back-run triple (non-adjacent)."""

    slot: int
    attacker: str
    victim: str
    victim_transaction_id: str
    frontrun_transaction_id: str
    backrun_transaction_id: str


@dataclass
class EthScanStats:
    """Bookkeeping for one scan."""

    blocks_scanned: int = 0
    trades_indexed: int = 0
    candidates: int = 0


@dataclass(frozen=True)
class _IndexedTrade:
    position: int
    transaction_id: str
    owner: str
    leg: TradeLeg


class EthStyleDetector:
    """Matches opposite-direction trade pairs straddling a victim trade."""

    def __init__(self, amount_tolerance: float = 0.10) -> None:
        if not 0.0 <= amount_tolerance < 1.0:
            raise ValueError(
                f"amount tolerance must be in [0, 1), got {amount_tolerance}"
            )
        self._tolerance = amount_tolerance
        self.stats = EthScanStats()

    def _amounts_match(self, bought: int, sold: int) -> bool:
        if bought <= 0 or sold <= 0:
            return False
        return abs(sold - bought) <= self._tolerance * bought

    def detect(self, ledger: Ledger) -> list[EthStyleCandidate]:
        """Scan each block for same-pool buy/sell pairs around a victim."""
        candidates: list[EthStyleCandidate] = []
        for block in ledger.blocks():
            self.stats.blocks_scanned += 1
            trades: list[_IndexedTrade] = []
            for position, receipt in enumerate(block.transactions):
                record = record_from_receipt(receipt, block.unix_timestamp)
                for leg in extract_trades(record):
                    trades.append(
                        _IndexedTrade(
                            position=position,
                            transaction_id=record.transaction_id,
                            owner=record.signer,
                            leg=leg,
                        )
                    )
            self.stats.trades_indexed += len(trades)
            candidates.extend(self._match_block(block.slot, trades))
        return candidates

    def _match_block(
        self, slot: int, trades: list[_IndexedTrade]
    ) -> list[EthStyleCandidate]:
        matched: list[EthStyleCandidate] = []
        used_backruns: set[int] = set()
        for i, front in enumerate(trades):
            for j in range(i + 1, len(trades)):
                back = trades[j]
                if j in used_backruns:
                    continue
                if back.owner != front.owner:
                    continue
                if back.position == front.position:
                    continue
                # Opposite direction on the same pool, matching size.
                if (
                    back.leg.pool != front.leg.pool
                    or back.leg.mint_in != front.leg.mint_out
                    or back.leg.mint_out != front.leg.mint_in
                ):
                    continue
                if not self._amounts_match(
                    front.leg.amount_out, back.leg.amount_in
                ):
                    continue
                victim = self._find_victim(trades, front, back, i, j)
                if victim is None:
                    continue
                used_backruns.add(j)
                matched.append(
                    EthStyleCandidate(
                        slot=slot,
                        attacker=front.owner,
                        victim=victim.owner,
                        victim_transaction_id=victim.transaction_id,
                        frontrun_transaction_id=front.transaction_id,
                        backrun_transaction_id=back.transaction_id,
                    )
                )
                self.stats.candidates += 1
                break
        return matched

    def _find_victim(
        self,
        trades: list[_IndexedTrade],
        front: _IndexedTrade,
        back: _IndexedTrade,
        i: int,
        j: int,
    ) -> _IndexedTrade | None:
        for k in range(i + 1, j):
            candidate = trades[k]
            if candidate.owner == front.owner:
                continue
            if candidate.position <= front.position:
                continue
            if candidate.position >= back.position:
                continue
            if (
                candidate.leg.pool == front.leg.pool
                and candidate.leg.mint_in == front.leg.mint_in
            ):
                return candidate
        return None
