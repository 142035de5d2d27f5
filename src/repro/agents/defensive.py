"""Length-one bundlers: defensive users and priority users.

Both submit one swap inside a Jito bundle of length one, and only the tip
tells them apart (paper Section 3.3). Defensive users model what the paper
found experimentally with Jupiter's "MEV protection" option: the swap
cannot be included in an attacker's bundle (bundles cannot nest), and the
tip is tiny — at or below 100,000 lamports, too small to buy meaningful
priority — which is the signature the classifier keys on. Priority users
tip strictly above that threshold to buy placement, forming the upper ~14%
of the length-one tip distribution in Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.agents.base import (
    AgentContext,
    Behavior,
    GeneratedBundle,
    Label,
    WalletPool,
    build_random_swap_instruction,
)
from repro.constants import DEFENSIVE_TIP_THRESHOLD_LAMPORTS, MIN_JITO_TIP_LAMPORTS
from repro.jito.tips import build_tip_instruction
from repro.solana.tokens import SOL_MINT
from repro.solana.transaction import Transaction
from repro.utils.distributions import clipped_lognormal
from repro.utils.rng import DeterministicRNG


@dataclass(frozen=True)
class DefensiveConfig:
    """Tip and trade distributions for MEV-protection users.

    Calibrated so the mean defensive tip lands near the paper's $0.0028
    (~11,600 lamports at $242/SOL) while the median stays a few thousand
    lamports and everything respects the 100,000-lamport ceiling.
    """

    num_wallets: int = 300
    median_tip_lamports: float = 6_500.0
    tip_sigma: float = 1.1
    max_tip_lamports: int = DEFENSIVE_TIP_THRESHOLD_LAMPORTS
    median_trade_sol: float = 1.0
    trade_sigma: float = 1.0


@dataclass(frozen=True)
class PriorityConfig:
    """Tip distribution for priority-seeking bundlers."""

    num_wallets: int = 100
    median_tip_lamports: float = 400_000.0
    tip_sigma: float = 1.2
    max_tip_lamports: int = 50_000_000
    median_trade_sol: float = 5.0
    trade_sigma: float = 1.0


class LengthOneBundler(Behavior):
    """One random swap, bundled alone under a tip drawn from the config.

    A subclass sets only its name, label, tip floor and trade bounds (SOL).
    """

    label: Label
    min_tip_lamports: int
    trade_bounds_sol: tuple[float, float]

    def __init__(
        self,
        ctx: AgentContext,
        rng: DeterministicRNG,
        config: DefensiveConfig | PriorityConfig,
    ) -> None:
        super().__init__(ctx, rng)
        self.config = config
        self.wallets = WalletPool(ctx.bank, f"{self.name}-wallet", config.num_wallets)

    def sample_tip(self) -> int:
        """A clipped lognormal tip between the floor and the config's ceiling."""
        return int(
            clipped_lognormal(
                self.rng,
                self.config.median_tip_lamports,
                self.config.tip_sigma,
                self.min_tip_lamports,
                self.config.max_tip_lamports,
            )
        )

    def generate(self) -> GeneratedBundle | None:
        """Submit one swap as a length-one bundle."""
        ctx = self.ctx
        wallet = self.wallets.pick(self.rng)
        amount_in = SOL_MINT.to_base_units(
            clipped_lognormal(
                self.rng,
                self.config.median_trade_sol,
                self.config.trade_sigma,
                *self.trade_bounds_sol,
            )
        )
        swap_ix, quote = build_random_swap_instruction(
            ctx, self.wallets, wallet, self.rng, amount_in, slippage_bps=300
        )
        tip = self.sample_tip()
        self.wallets.ensure_lamports(wallet, tip + 1_000_000)
        tx = Transaction.build(
            wallet,
            [
                swap_ix,
                build_tip_instruction(
                    wallet.pubkey, tip, account_index=self.rng.randint(0, 7)
                ),
            ],
        )
        bundle_id = ctx.searcher.send_bundle([tx])
        return ctx.record(
            bundle_id,
            self.label,
            length=1,
            tip_lamports=tip,
            wallet=wallet.pubkey.to_base58(),
            pair=quote.pool.pair_name,
        )


class DefensiveUser(LengthOneBundler):
    """Submits single-transaction Jito bundles purely for MEV protection."""

    name = "defensive"
    label = Label.DEFENSIVE
    min_tip_lamports = MIN_JITO_TIP_LAMPORTS
    trade_bounds_sol = (0.01, 100.0)


class PriorityUser(LengthOneBundler):
    """Bundles a single transaction with a large tip for fast placement."""

    name = "priority"
    label = Label.PRIORITY
    min_tip_lamports = DEFENSIVE_TIP_THRESHOLD_LAMPORTS + 1
    trade_bounds_sol = (0.1, 500.0)
