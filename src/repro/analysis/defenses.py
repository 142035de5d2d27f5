"""Victim-side defenses: slippage tuning and trade splitting.

Paper Section 2.2 lists the strategies users employ against sandwiching:
"splitting up larger trades into smaller transactions, and properly setting
slippage tolerance", citing Ethereum results that tight slippage caps the
attacker but cannot prevent the attack. This module evaluates both
counterfactually with the same constant-product math the attacker uses, so
the reproduction can *measure* those claims instead of citing them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.agents.attacker import plan_frontrun
from repro.dex.pool import quote_constant_product
from repro.dex.slippage import min_out_with_slippage
from repro.errors import ConfigError


@dataclass(frozen=True)
class DefenseOutcome:
    """What a victim experienced under one defensive configuration."""

    attacked: bool
    victim_loss_quote: float
    attacker_profit_quote: int
    victim_received: int


@dataclass
class _PoolState:
    """Mutable constant-product state for counterfactual replay."""

    reserve_in: int
    reserve_out: int
    fee_bps: int

    def swap_in(self, amount_in: int) -> int:
        out = quote_constant_product(
            self.reserve_in, self.reserve_out, amount_in, self.fee_bps
        )
        self.reserve_in += amount_in
        self.reserve_out -= out
        return out

    def swap_out_side(self, amount_tokens: int) -> int:
        """Trade tokens back into the quote side (the attacker's back-run)."""
        received = quote_constant_product(
            self.reserve_out, self.reserve_in, amount_tokens, self.fee_bps
        )
        self.reserve_out += amount_tokens
        self.reserve_in -= received
        return received


def simulate_attack_on_trade(
    reserve_in: int,
    reserve_out: int,
    fee_bps: int,
    victim_amount_in: int,
    slippage_bps: int,
    attacker_min_profit: int = 200_000,
) -> tuple[DefenseOutcome, _PoolState]:
    """Run one (possibly sandwiched) trade and return the outcome + state.

    A rational attacker attacks exactly when the profit-optimal front-run
    clears their minimum; the victim's loss is the paper's rate-comparison
    metric against the attacker's first leg (zero when no attack happens).
    """
    if victim_amount_in <= 0:
        raise ConfigError("victim trade must be positive")
    state = _PoolState(reserve_in, reserve_out, fee_bps)
    quoted = quote_constant_product(
        reserve_in, reserve_out, victim_amount_in, fee_bps
    )
    min_out = min_out_with_slippage(quoted, slippage_bps)
    plan = plan_frontrun(
        reserve_in,
        reserve_out,
        fee_bps,
        victim_amount_in,
        min_out,
        max_frontrun=reserve_in // 4,
    )
    if plan is None or plan.expected_profit < attacker_min_profit:
        received = state.swap_in(victim_amount_in)
        return (
            DefenseOutcome(
                attacked=False,
                victim_loss_quote=0.0,
                attacker_profit_quote=0,
                victim_received=received,
            ),
            state,
        )

    frontrun_out = state.swap_in(plan.frontrun_in)
    attacker_rate = plan.frontrun_in / frontrun_out
    victim_received = state.swap_in(victim_amount_in)
    backrun_received = state.swap_out_side(frontrun_out)
    loss = victim_amount_in - attacker_rate * victim_received
    return (
        DefenseOutcome(
            attacked=True,
            victim_loss_quote=loss,
            attacker_profit_quote=backrun_received - plan.frontrun_in,
            victim_received=victim_received,
        ),
        state,
    )


def slippage_sweep(
    reserve_in: int,
    reserve_out: int,
    fee_bps: int,
    victim_amount_in: int,
    slippage_values_bps: list[int],
    attacker_min_profit: int = 200_000,
) -> list[tuple[int, DefenseOutcome]]:
    """Victim outcomes across slippage settings (fresh pool each time).

    Reproduces the cited Ethereum finding: the loss is monotone in the
    tolerance, and below some setting the attack becomes unprofitable and
    stops happening entirely.
    """
    return [
        (
            bps,
            simulate_attack_on_trade(
                reserve_in,
                reserve_out,
                fee_bps,
                victim_amount_in,
                bps,
                attacker_min_profit,
            )[0],
        )
        for bps in slippage_values_bps
    ]


def split_trade_outcome(
    reserve_in: int,
    reserve_out: int,
    fee_bps: int,
    total_amount_in: int,
    num_splits: int,
    slippage_bps: int,
    attacker_min_profit: int = 200_000,
) -> DefenseOutcome:
    """One trade executed as ``num_splits`` sequential chunks.

    Each chunk is independently exposed to a rational attacker against the
    *evolving* pool state: small chunks can fall below the attacker's profit
    floor, which is exactly why splitting defends.
    """
    if num_splits < 1:
        raise ConfigError(f"num_splits must be >= 1, got {num_splits}")
    chunk = total_amount_in // num_splits
    if chunk <= 0:
        raise ConfigError("trade too small to split that far")
    state = _PoolState(reserve_in, reserve_out, fee_bps)
    total_loss = 0.0
    total_received = 0
    total_attacker_profit = 0
    any_attack = False
    for index in range(num_splits):
        amount = chunk if index < num_splits - 1 else (
            total_amount_in - chunk * (num_splits - 1)
        )
        outcome, state = simulate_attack_on_trade(
            state.reserve_in,
            state.reserve_out,
            fee_bps,
            amount,
            slippage_bps,
            attacker_min_profit,
        )
        total_loss += outcome.victim_loss_quote
        total_received += outcome.victim_received
        total_attacker_profit += outcome.attacker_profit_quote
        any_attack = any_attack or outcome.attacked
    return DefenseOutcome(
        attacked=any_attack,
        victim_loss_quote=total_loss,
        attacker_profit_quote=total_attacker_profit,
        victim_received=total_received,
    )


def split_sweep(
    reserve_in: int,
    reserve_out: int,
    fee_bps: int,
    total_amount_in: int,
    split_counts: list[int],
    slippage_bps: int,
    attacker_min_profit: int = 200_000,
) -> list[tuple[int, DefenseOutcome]]:
    """Outcomes across split counts (fresh pool per configuration)."""
    return [
        (
            n,
            split_trade_outcome(
                reserve_in,
                reserve_out,
                fee_bps,
                total_amount_in,
                n,
                slippage_bps,
                attacker_min_profit,
            ),
        )
        for n in split_counts
    ]
