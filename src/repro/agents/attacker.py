"""The sandwich attacker: victim selection, optimal front-run sizing,
bundle construction, and profit-proportional tipping.

The attack exactly follows the paper's threat model (Section 2.3): a victim
transaction submitted natively to Solana is instead claimed from a private
mempool and landed inside the attacker's Jito bundle, surrounded by a
front-run buy and a back-run sell. Atomicity makes the attack risk-free —
if the victim's slippage check fails, the whole bundle is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.agents.base import (
    AgentContext,
    Behavior,
    GeneratedBundle,
    Label,
    WalletPool,
)
from repro.agents.retail import RetailTrader, VictimOrder
from repro.constants import MIN_JITO_TIP_LAMPORTS
from repro.dex.pool import PoolSpec, quote_constant_product
from repro.dex.swap import swap_instruction
from repro.errors import (
    ConfigError,
    InsufficientLiquidityError,
    PoolNotFoundError,
    ProgramError,
)
from repro.jito.tips import build_tip_instruction
from repro.solana.instruction import DEX_PROGRAM_ID
from repro.solana.keys import Keypair, Pubkey
from repro.solana.tokens import SOL_MINT
from repro.solana.transaction import Transaction
from repro.utils.rng import DeterministicRNG


@dataclass(frozen=True)
class SandwichConfig:
    """Attacker economics and behaviour knobs."""

    num_wallets: int = 12
    non_sol_fraction: float = 0.22
    tip_profit_fraction_low: float = 0.18
    tip_profit_fraction_high: float = 0.50
    min_profit_lamports: int = 200_000
    # Footnote 7: attackers frequently unload held inventory in the
    # back-run, selling more than the front-run bought. The dump size is
    # proportional to the opportunity (the expected extraction).
    sell_extra_probability: float = 0.75
    sell_extra_value_low: float = 2.0
    sell_extra_value_high: float = 8.0
    botched_backrun_probability: float = 0.01
    max_frontrun_reserve_fraction: float = 0.25
    # Probability a second searcher contests the same victim with its own
    # tip bid; the block engine's auction plus replay protection lands the
    # higher bid and drops the loser risk-free (paper Section 4.2's
    # "outbid others attacking the same victim transaction").
    contested_probability: float = 0.0
    # Fraction of attacks submitted through a private channel that bypasses
    # the public explorer feed. The bundle still lands (ground truth records
    # it) but a feed-scraping collector never sees it — the sampling bias
    # "Sandwiched and Silent" documents for Ethereum. The channel draw only
    # happens when the fraction is positive, so default campaigns consume
    # exactly the historical RNG stream.
    private_channel_fraction: float = 0.0


@dataclass(frozen=True)
class FrontrunPlan:
    """A fully solved sandwich: sizes and expected outcomes."""

    frontrun_in: int
    frontrun_out: int
    victim_out: int
    backrun_out: int

    @property
    def expected_profit(self) -> int:
        """Expected quote-currency profit before tips and fees."""
        return self.backrun_out - self.frontrun_in


def parse_swap_payload(tx: Transaction) -> dict | None:
    """Extract the first DEX swap payload from a transaction, if any.

    This is the searcher's-eye view: a pending transaction's instructions
    are plaintext, so the attacker can read the victim's pool, size, and —
    crucially — slippage floor.
    """
    for instruction in tx.message.instructions:
        if instruction.program_id != DEX_PROGRAM_ID:
            continue
        try:
            payload = instruction.payload()
        except ProgramError:
            continue
        if payload.get("op") == "swap":
            return payload
    return None


def plan_frontrun(
    reserve_in: int,
    reserve_out: int,
    fee_bps: int,
    victim_amount_in: int,
    victim_min_out: int,
    max_frontrun: int,
) -> FrontrunPlan | None:
    """Solve for the largest front-run the victim's slippage floor allows.

    The victim's output is monotonically decreasing in the front-run size,
    so binary search finds the maximal size that still lets the victim's
    ``min_amount_out`` check pass; extraction is maximal exactly at the
    victim's slippage budget, matching the paper's observation that slippage
    acts as a cap on the attacker (Section 2.2).

    Returns None when even an untouched pool cannot satisfy the victim (a
    stale quote) or when no positive front-run is feasible.
    """

    def victim_out_with_frontrun(frontrun: int) -> tuple[int, int]:
        if frontrun == 0:
            out_front = 0
            r_in, r_out = reserve_in, reserve_out
        else:
            out_front = quote_constant_product(
                reserve_in, reserve_out, frontrun, fee_bps
            )
            r_in, r_out = reserve_in + frontrun, reserve_out - out_front
        try:
            victim_out = quote_constant_product(
                r_in, r_out, victim_amount_in, fee_bps
            )
        except InsufficientLiquidityError:
            return 0, out_front
        return victim_out, out_front

    def full_plan(frontrun: int) -> FrontrunPlan | None:
        victim_out, frontrun_out = victim_out_with_frontrun(frontrun)
        if victim_out < victim_min_out or frontrun_out <= 0:
            return None
        # State after the victim's trade, from which the back-run sells.
        r_in_final = reserve_in + frontrun + victim_amount_in
        r_out_final = reserve_out - frontrun_out - victim_out
        try:
            backrun_out = quote_constant_product(
                r_out_final, r_in_final, frontrun_out, fee_bps
            )
        except (InsufficientLiquidityError, ConfigError):
            return None
        return FrontrunPlan(
            frontrun_in=frontrun,
            frontrun_out=frontrun_out,
            victim_out=victim_out,
            backrun_out=backrun_out,
        )

    baseline_out, _ = victim_out_with_frontrun(0)
    if baseline_out < victim_min_out:
        return None

    # Largest feasible front-run: the victim's slippage floor is monotone
    # decreasing in the front-run size, so binary search the boundary.
    low, high = 0, max(1, max_frontrun)
    while low < high:
        mid = (low + high + 1) // 2
        victim_out, _ = victim_out_with_frontrun(mid)
        if victim_out >= victim_min_out:
            low = mid
        else:
            high = mid - 1
    if low == 0:
        return None

    # Profit is unimodal in the front-run size: extraction grows with the
    # price push, but the attacker pays LP fees on their own round trip.
    # Ternary search the interior optimum within the feasible range.
    def profit(frontrun: int) -> int:
        plan = full_plan(frontrun)
        return plan.expected_profit if plan else -(10**30)

    lo, hi = 1, low
    while hi - lo > 2:
        third = (hi - lo) // 3
        m1, m2 = lo + third, hi - third
        if profit(m1) < profit(m2):
            lo = m1 + 1
        else:
            hi = m2 - 1
    best = max(range(lo, hi + 1), key=profit)
    plan = full_plan(best)
    if plan is None or plan.expected_profit <= 0:
        return None
    return plan


class SandwichAttacker(Behavior):
    """Claims native victims and lands front-run/victim/back-run bundles."""

    name = "sandwich-attacker"

    def __init__(
        self,
        ctx: AgentContext,
        rng: DeterministicRNG,
        retail: RetailTrader,
        config: SandwichConfig | None = None,
    ) -> None:
        super().__init__(ctx, rng)
        self.config = config or SandwichConfig()
        self.retail = retail
        self.wallets = WalletPool(ctx.bank, "attacker-wallet", self.config.num_wallets)
        self.attacks_skipped = 0

    # --- helpers --------------------------------------------------------------

    def _reserves(self, pool: PoolSpec, mint_in: Pubkey) -> tuple[int, int]:
        bank = self.ctx.bank
        mint_out = pool.other_mint(mint_in)
        return (
            bank.token_balance(pool.address, mint_in),
            bank.token_balance(pool.address, mint_out.address),
        )

    def _tip_for_profit(self, profit_lamport_equiv: int) -> int:
        fraction = self.rng.uniform(
            self.config.tip_profit_fraction_low,
            self.config.tip_profit_fraction_high,
        )
        return max(int(profit_lamport_equiv * fraction), MIN_JITO_TIP_LAMPORTS)

    def _send_sandwich(
        self,
        wallet: Keypair,
        tip: int,
        claimed: Transaction,
        pool: PoolSpec,
        mint_in: Pubkey,
        plan: FrontrunPlan,
        sell_amount: int,
    ) -> str:
        """Fund ``wallet``, put ``claimed`` between its front-run buy and
        tipped back-run sell, and submit the bundle; returns its id."""
        self.wallets.ensure_lamports(wallet, tip + 1_000_000)
        self.wallets.ensure_tokens(wallet, mint_in, plan.frontrun_in)
        owner, mint_out = wallet.pubkey, pool.other_mint(mint_in).address
        buy = swap_instruction(owner, pool, mint_in, plan.frontrun_in, min_amount_out=0)
        sell = swap_instruction(owner, pool, mint_out, sell_amount, min_amount_out=0)
        tip_ix = build_tip_instruction(
            owner, tip, account_index=self.rng.randint(0, 7)
        )
        return self.ctx.searcher.send_bundle(
            [
                Transaction.build(wallet, [buy]),
                claimed,
                Transaction.build(wallet, [sell, tip_ix]),
            ]
        )

    def _value_in_lamports(self, pool: PoolSpec, mint: Pubkey, amount: int) -> int:
        """Value an amount of ``mint`` in lamports, via pool spot rates.

        The attacker's planning currency is whatever the victim pays with —
        SOL, USDC, or (for sell-direction victims) the memecoin itself — so
        profits must be normalized before thresholding and tip sizing.
        """
        market = self.ctx.market
        if mint == SOL_MINT.address:
            return amount  # wrapped SOL has 9 decimals: 1 unit == 1 lamport
        if mint == market.usdc.address:
            usd = amount / 10**market.usdc.decimals
            return self.ctx.oracle.usd_to_lamports(usd)
        # A memecoin: convert into the pool's quote side first.
        quote_mint = pool.other_mint(mint)
        rate = market.spot_rate(pool, quote_mint.address)
        return self._value_in_lamports(pool, quote_mint.address, int(amount * rate))

    # --- the attack --------------------------------------------------------------

    def generate(self) -> GeneratedBundle | None:
        """Create a victim, claim it from the mempool, and sandwich it.

        Returns None (and lets the victim trade natively) whenever the attack
        is infeasible or unprofitable — mirroring a rational searcher.
        """
        ctx = self.ctx
        config = self.config
        pool_kind = "token" if self.rng.bernoulli(config.non_sol_fraction) else "sol"
        victim = self.retail.build_and_submit_order(pool_kind=pool_kind)

        claimed = ctx.relayer.mempool.claim(victim.transaction.transaction_id)
        if claimed is None:
            self.attacks_skipped += 1
            return None
        return self.attack_claimed_transaction(
            claimed, victim_slippage_bps=victim.slippage_bps
        )

    def attack_claimed_transaction(
        self,
        claimed: Transaction,
        victim_slippage_bps: int | None = None,
    ) -> GeneratedBundle | None:
        """Sandwich an already-claimed pending transaction.

        The searcher-side core: parse the victim's swap, solve the optimal
        front-run against live reserves, check profitability, build and
        submit the bundle. On any skip the victim is returned to native
        flow. This is all an attacker needs once it can *see* a pending
        transaction — which is the paper's point about mempool exposure.
        """
        ctx = self.ctx
        config = self.config

        payload = parse_swap_payload(claimed)
        if payload is None:
            ctx.searcher.send_transaction(claimed)
            self.attacks_skipped += 1
            return None

        try:
            pool = ctx.market.registry.get(Pubkey.from_base58(payload["pool"]))
        except PoolNotFoundError:
            ctx.searcher.send_transaction(claimed)
            self.attacks_skipped += 1
            return None
        mint_in = Pubkey.from_base58(payload["mint_in"])
        reserve_in, reserve_out = self._reserves(pool, mint_in)
        plan = plan_frontrun(
            reserve_in=reserve_in,
            reserve_out=reserve_out,
            fee_bps=pool.fee_bps,
            victim_amount_in=int(payload["amount_in"]),
            victim_min_out=int(payload["min_amount_out"]),
            max_frontrun=int(reserve_in * config.max_frontrun_reserve_fraction),
        )
        profit = plan.expected_profit if plan else 0
        profit_lamports = (
            self._value_in_lamports(pool, mint_in, profit) if plan else 0
        )
        if plan is None or profit_lamports < config.min_profit_lamports:
            ctx.searcher.send_transaction(claimed)
            self.attacks_skipped += 1
            return None

        wallet = self.wallets.pick(self.rng)
        mint_out = pool.other_mint(mint_in)
        tip = self._tip_for_profit(profit_lamports)

        sell_amount = plan.frontrun_out
        sold_extra = False
        if self.rng.bernoulli(config.sell_extra_probability):
            # Inventory dump sized to the opportunity: tokens worth roughly
            # 0.5x-2.5x the expected extraction, valued at the attacker's
            # own front-run rate.
            extra_quote = profit * self.rng.uniform(
                config.sell_extra_value_low, config.sell_extra_value_high
            )
            token_per_quote = plan.frontrun_out / plan.frontrun_in
            extra = int(extra_quote * token_per_quote)
            if extra > 0:
                sell_amount += extra
                sold_extra = True
        if self.rng.bernoulli(config.botched_backrun_probability):
            # A stale-state bot occasionally tries to sell tokens it will not
            # have; the bundle fails on-chain and is dropped risk-free.
            sell_amount = plan.frontrun_out * 3

        if sold_extra:
            self.wallets.ensure_tokens(
                wallet, mint_out.address, sell_amount - plan.frontrun_out
            )
        bundle_id = self._send_sandwich(
            wallet, tip, claimed, pool, mint_in, plan, sell_amount
        )
        contested = self.rng.bernoulli(config.contested_probability)
        private = config.private_channel_fraction > 0 and self.rng.bernoulli(
            config.private_channel_fraction
        )
        victim_wallet = claimed.message.fee_payer.to_base58()
        generated = ctx.record(
            bundle_id,
            Label.SANDWICH,
            length=3,
            tip_lamports=tip,
            victim_tx_id=claimed.transaction_id,
            attacker=wallet.pubkey.to_base58(),
            victim=victim_wallet,
            pool=pool.address.to_base58(),
            pair=pool.pair_name,
            involves_sol=pool.has_mint(SOL_MINT.address),
            expected_profit_quote_units=profit,
            expected_profit_lamports=profit_lamports,
            victim_slippage_bps=victim_slippage_bps,
            sold_extra=sold_extra,
            contested=contested,
            channel="private" if private else "public",
        )
        if contested:
            self._submit_rival(
                primary=generated,
                claimed=claimed,
                pool=pool,
                mint_in=mint_in,
                plan=plan,
                profit=profit,
                profit_lamports=profit_lamports,
                victim_wallet=victim_wallet,
                excluding=wallet,
            )
        return generated

    def _submit_rival(
        self,
        primary: GeneratedBundle,
        claimed: Transaction,
        pool: PoolSpec,
        mint_in: Pubkey,
        plan: FrontrunPlan,
        profit: int,
        profit_lamports: int,
        victim_wallet: str,
        excluding,
    ) -> GeneratedBundle:
        """A rival searcher sandwiches the same victim with its own tip bid.

        Both bundles contain the victim transaction; the block engine's
        tip-ordered auction lands one and drops the other via replay
        protection — the outbidding mechanism the paper infers from the
        attack bundles' extreme tips. Rivals see the same pool state, so
        their plans coincide; only the tip bid differs.
        """
        ctx = self.ctx
        rival = self.wallets.pick(self.rng)
        while rival.pubkey == excluding.pubkey and len(self.wallets) > 1:
            rival = self.wallets.pick(self.rng)
        rival_tip = self._tip_for_profit(profit_lamports)
        bundle_id = self._send_sandwich(
            rival, rival_tip, claimed, pool, mint_in, plan, plan.frontrun_out
        )
        return ctx.record(
            bundle_id,
            Label.SANDWICH,
            length=3,
            tip_lamports=rival_tip,
            victim_tx_id=claimed.transaction_id,
            attacker=rival.pubkey.to_base58(),
            victim=victim_wallet,
            pool=pool.address.to_base58(),
            pair=pool.pair_name,
            involves_sol=pool.has_mint(SOL_MINT.address),
            expected_profit_quote_units=profit,
            contested=True,
            rival_of=primary.bundle_id,
        )
