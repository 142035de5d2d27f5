"""Daily aggregation and headline statistics (paper Section 4)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.defensive import DefensiveReport
from repro.core.quantify import QuantifiedSandwich
from repro.dex.oracle import PriceOracle
from repro.utils.simtime import unix_to_date


@dataclass
class DailySandwichStats:
    """One day of attack activity."""

    date: str
    attacks: int = 0
    victim_loss_sol: float = 0.0
    attacker_gain_sol: float = 0.0


def sandwiches_per_day(
    quantified: list[QuantifiedSandwich], oracle: PriceOracle
) -> dict[str, DailySandwichStats]:
    """Aggregate detected sandwiches into per-UTC-day stats.

    Loss/gain series include only SOL-denominated events, as in Figure 2
    (bottom); counts include everything.
    """
    table: dict[str, DailySandwichStats] = {}
    for item in quantified:
        date = unix_to_date(item.event.landed_at)
        stats = table.setdefault(date, DailySandwichStats(date=date))
        stats.attacks += 1
        if item.victim_loss_usd is not None:
            stats.victim_loss_sol += item.victim_loss_usd / oracle.usd_per_sol
        if item.attacker_gain_usd is not None:
            stats.attacker_gain_sol += item.attacker_gain_usd / oracle.usd_per_sol
    return dict(sorted(table.items()))


@dataclass
class HeadlineStats:
    """The paper's Section 4 headline numbers, computed from one campaign."""

    sandwich_count: int
    non_sol_sandwiches: int
    victim_loss_usd: float
    attacker_gain_usd: float
    median_victim_loss_usd: float | None
    bundles_collected: int
    sandwich_bundle_fraction: float
    defensive_bundles: int
    defensive_fraction_of_length_one: float
    defensive_spend_usd: float
    average_defensive_tip_usd: float
    poll_overlap_fraction: float | None = None
    losses_usd: list[float] = field(default_factory=list)

    def non_sol_fraction(self) -> float:
        """Share of sandwiches that never touch SOL (paper: 28%)."""
        if self.sandwich_count == 0:
            return 0.0
        return self.non_sol_sandwiches / self.sandwich_count


def headline_stats(
    quantified: list[QuantifiedSandwich],
    defensive_report: DefensiveReport,
    bundles_collected: int,
    oracle: PriceOracle,
    poll_overlap_fraction: float | None = None,
) -> HeadlineStats:
    """Assemble the headline statistics from pipeline outputs."""
    losses = [
        item.victim_loss_usd
        for item in quantified
        if item.victim_loss_usd is not None
    ]
    gains = [
        item.attacker_gain_usd
        for item in quantified
        if item.attacker_gain_usd is not None
    ]
    positive_losses = sorted(loss for loss in losses if loss > 0)
    median_loss = (
        positive_losses[len(positive_losses) // 2] if positive_losses else None
    )
    return HeadlineStats(
        sandwich_count=len(quantified),
        non_sol_sandwiches=sum(1 for q in quantified if not q.priced),
        victim_loss_usd=sum(losses),
        attacker_gain_usd=sum(gains),
        median_victim_loss_usd=median_loss,
        bundles_collected=bundles_collected,
        sandwich_bundle_fraction=(
            len(quantified) / bundles_collected if bundles_collected else 0.0
        ),
        defensive_bundles=len(defensive_report.defensive_ids),
        defensive_fraction_of_length_one=defensive_report.defensive_fraction,
        defensive_spend_usd=defensive_report.defensive_spend_usd(oracle),
        average_defensive_tip_usd=defensive_report.average_defensive_tip_usd(
            oracle
        ),
        poll_overlap_fraction=poll_overlap_fraction,
        losses_usd=[loss for loss in losses if loss > 0],
    )
