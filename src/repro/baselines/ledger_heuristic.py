"""Bundle-blind sandwich detection over the raw ledger.

A full-node observer sees only blocks: ordered transactions with no trace of
Jito bundling. This baseline slides a three-transaction window across each
block and applies the paper's content criteria (same attacker outer legs,
distinct victim, same mints, adverse rate move, attacker net gain) without
any bundle boundary or tip information.

Its failure modes motivate the paper's collection methodology: it cannot
measure tips or defensive bundling at all, and window positions that straddle
bundle boundaries can both miss true sandwiches and invent false ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.trades import extract_trades, net_deltas_for, traded_mints
from repro.errors import DetectionError
from repro.explorer.models import TransactionRecord
from repro.explorer.service import record_from_receipt
from repro.solana.ledger import Ledger


@dataclass(frozen=True)
class LedgerCandidate:
    """A consecutive-transaction triple flagged as a sandwich."""

    slot: int
    attacker: str
    victim: str
    victim_transaction_id: str
    transaction_ids: tuple[str, str, str]


@dataclass
class LedgerScanStats:
    """Bookkeeping for one ledger scan."""

    blocks_scanned: int = 0
    windows_examined: int = 0
    candidates: int = 0
    rejections: dict[str, int] = field(default_factory=dict)


class LedgerOnlyDetector:
    """Scans blocks for sandwich-shaped consecutive transaction triples."""

    def __init__(self) -> None:
        self.stats = LedgerScanStats()

    def _reject(self, reason: str) -> None:
        self.stats.rejections[reason] = self.stats.rejections.get(reason, 0) + 1

    def _check_window(
        self, window: list[TransactionRecord]
    ) -> LedgerCandidate | None:
        first, second, third = window
        if first.signer != third.signer or second.signer == first.signer:
            self._reject("signers")
            return None
        mints = [traded_mints(record) for record in window]
        if not all(mints) or not (mints[0] == mints[1] == mints[2]):
            self._reject("mints")
            return None
        front_legs = extract_trades(first)
        victim_legs = extract_trades(second)
        if not front_legs or not victim_legs:
            self._reject("no_trades")
            return None
        front, victim = front_legs[0], victim_legs[0]
        if front.mint_in != victim.mint_in or front.mint_out != victim.mint_out:
            self._reject("direction")
            return None
        try:
            if victim.rate <= front.rate:
                self._reject("rate")
                return None
        except DetectionError:
            self._reject("rate")
            return None
        deltas = net_deltas_for([first, third], first.signer)
        quote_delta = deltas.get(front.mint_in, 0)
        token_delta = deltas.get(front.mint_out, 0)
        if not (quote_delta > 0 or (quote_delta == 0 and token_delta > 0)):
            self._reject("net_gain")
            return None
        return LedgerCandidate(
            slot=first.slot,
            attacker=first.signer,
            victim=second.signer,
            victim_transaction_id=second.transaction_id,
            transaction_ids=(
                first.transaction_id,
                second.transaction_id,
                third.transaction_id,
            ),
        )

    def detect(self, ledger: Ledger) -> list[LedgerCandidate]:
        """Scan every block; returns flagged triples in chain order."""
        candidates: list[LedgerCandidate] = []
        for block in ledger.blocks():
            self.stats.blocks_scanned += 1
            records = [
                record_from_receipt(receipt, block.unix_timestamp)
                for receipt in block.transactions
            ]
            for start in range(len(records) - 2):
                self.stats.windows_examined += 1
                candidate = self._check_window(records[start : start + 3])
                if candidate is not None:
                    candidates.append(candidate)
                    self.stats.candidates += 1
        return candidates
