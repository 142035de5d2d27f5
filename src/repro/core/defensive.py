"""Defensive-bundling classification (paper Section 3.3).

A length-one bundle whose Jito tip is at or below 100,000 lamports cannot be
buying meaningful priority — the paper's experiments with Jupiter put the
floor of priority-relevant tips above that — so such bundles are classified
as MEV protection. Everything above the threshold is priority-seeking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.constants import DEFENSIVE_TIP_THRESHOLD_LAMPORTS, LAMPORTS_PER_SOL
from repro.collector.store import BundleStore
from repro.dex.oracle import PriceOracle
from repro.errors import ConfigError
from repro.explorer.models import BundleRecord
from repro.utils.simtime import count_dates


@dataclass
class DefensiveReport:
    """Classification results over all collected length-one bundles.

    The report keeps what its consumers read, never the bundles: the
    classified ids in collection order (the oracle's comparable payload
    pins both lists), the defensive tip total as an exact integer (the
    headline's spend and average tip), and the defensive count per UTC
    date (Figure 2).
    """

    threshold_lamports: int
    defensive_ids: list[str] = field(default_factory=list)
    priority_ids: list[str] = field(default_factory=list)
    #: Total lamports spent on defensive tips.
    defensive_tips_lamports: int = 0
    #: Defensive bundles per UTC date, sorted by date.
    defensive_by_day: dict[str, int] = field(default_factory=dict)

    @property
    def length_one_total(self) -> int:
        """All length-one bundles classified."""
        return len(self.defensive_ids) + len(self.priority_ids)

    @property
    def defensive_fraction(self) -> float:
        """Share of length-one bundles classified defensive (paper: ~86%)."""
        total = self.length_one_total
        return len(self.defensive_ids) / total if total else 0.0

    def defensive_spend_usd(self, oracle: PriceOracle) -> float:
        """Cumulative USD spent on defensive bundling (paper: ~$2.42M)."""
        return oracle.lamports_to_usd(self.defensive_tips_lamports)

    def average_defensive_tip_usd(self, oracle: PriceOracle) -> float:
        """Mean defensive tip in USD (paper: ~$0.0028)."""
        if not self.defensive_ids:
            return 0.0
        return oracle.lamports_to_usd(
            self.defensive_tips_lamports / len(self.defensive_ids)
        )

    def average_defensive_tip_sol(self) -> float:
        """Mean defensive tip in SOL."""
        if not self.defensive_ids:
            return 0.0
        return (
            self.defensive_tips_lamports
            / len(self.defensive_ids)
            / LAMPORTS_PER_SOL
        )

    def defensive_per_day(self) -> dict[str, int]:
        """Defensive bundle count per UTC date (the Figure 2 top series)."""
        return dict(self.defensive_by_day)


class DefensiveBundlingClassifier:
    """Splits length-one bundles into defensive vs priority by tip size."""

    def __init__(
        self, threshold_lamports: int = DEFENSIVE_TIP_THRESHOLD_LAMPORTS
    ) -> None:
        if threshold_lamports < 0:
            raise ConfigError(
                f"threshold must be >= 0, got {threshold_lamports}"
            )
        self._threshold = threshold_lamports

    @property
    def threshold_lamports(self) -> int:
        """The defensive/priority tip boundary."""
        return self._threshold

    def classify_records(
        self, records: Iterable[BundleRecord]
    ) -> DefensiveReport:
        """Classify the length-one bundles among ``records``, in order."""
        report = DefensiveReport(threshold_lamports=self._threshold)
        defensive, priority = report.defensive_ids, report.priority_ids
        threshold = self._threshold
        tips = 0
        landed: list[float] = []
        for record in records:
            if record.num_transactions != 1:
                continue
            if record.tip_lamports <= threshold:
                defensive.append(record.bundle_id)
                tips += record.tip_lamports
                landed.append(record.landed_at)
            else:
                priority.append(record.bundle_id)
        report.defensive_tips_lamports = tips
        report.defensive_by_day = count_dates(landed)
        return report

    def classify(self, store: BundleStore) -> DefensiveReport:
        """Classify every collected length-one bundle."""
        return self.classify_records(store.bundles_of_length(1))
