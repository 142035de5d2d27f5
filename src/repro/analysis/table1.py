"""Table 1: a worked example of a Sandwiching MEV bundle.

Reconstructs the paper's illustrative table — attacker BUY, victim BUY,
attacker SELL on one token, with the token's price stepping up under each
buy — by actually executing a sandwich bundle on a fresh single-pool world
and reading the price off the pool before and after every transaction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.agents.attacker import plan_frontrun
from repro.analysis.figures import format_table
from repro.dex.market import Market, MarketConfig
from repro.dex.slippage import min_out_with_slippage
from repro.dex.swap import swap_instruction
from repro.errors import ConfigError
from repro.solana.bank import Bank
from repro.solana.keys import Keypair
from repro.solana.tokens import SOL_MINT
from repro.solana.transaction import Transaction
from repro.utils.rng import DeterministicRNG


@dataclass(frozen=True)
class Table1Row:
    """One row of the example table."""

    order: int
    transaction_id: str
    sender: str
    action: str
    token: str
    amount: int
    price_before_sol: float
    price_after_sol: float


@dataclass
class Table1:
    """The example sandwich, with realized prices."""

    rows: list[Table1Row]
    attacker_profit_lamports: int
    victim_slippage_bps: int

    def render(self) -> str:
        """Plain-text rendering in the paper's column layout."""
        body = [
            [
                str(row.order),
                row.transaction_id[:8],
                row.sender,
                row.action,
                row.token,
                f"{row.amount:,}",
                f"{row.price_before_sol:.9f} -> {row.price_after_sol:.9f}",
            ]
            for row in self.rows
        ]
        table = format_table(
            ["Order", "TxID", "Sender", "Action", "Token", "Amount", "Price (SOL)"],
            body,
        )
        return (
            "Table 1 — example Sandwiching MEV bundle\n"
            f"{table}\n"
            f"attacker profit: {self.attacker_profit_lamports:,} lamports "
            f"(victim slippage tolerance: {self.victim_slippage_bps} bps)"
        )


def build_table1(
    victim_trade_sol: float = 25.0, victim_slippage_bps: int = 200
) -> Table1:
    """Execute the canonical example sandwich and tabulate it.

    Raises:
        ConfigError: if the configured victim is too small to attack.
    """
    rng = DeterministicRNG("table1")
    bank = Bank()
    market = Market(bank, MarketConfig(num_meme_tokens=1, num_token_token_pools=0), rng)
    pool = market.sol_pools[0]
    token = pool.other_mint(SOL_MINT.address)
    attacker = Keypair("table1-attacker")
    victim = Keypair("table1-victim")

    victim_in = SOL_MINT.to_base_units(victim_trade_sol)
    quoted = market.quote(pool, SOL_MINT.address, victim_in)
    victim_min_out = min_out_with_slippage(quoted, victim_slippage_bps)

    reserve_sol = bank.token_balance(pool.address, SOL_MINT.address)
    reserve_token = bank.token_balance(pool.address, token.address)
    plan = plan_frontrun(
        reserve_in=reserve_sol,
        reserve_out=reserve_token,
        fee_bps=pool.fee_bps,
        victim_amount_in=victim_in,
        victim_min_out=victim_min_out,
        max_frontrun=reserve_sol // 4,
    )
    if plan is None:
        raise ConfigError("example victim is unprofitable; enlarge the trade")

    for keypair, sol_amount, token_amount in (
        (attacker, plan.frontrun_in, 0),
        (victim, victim_in, 0),
    ):
        bank.fund(keypair, 10_000_000)
        bank.fund_tokens(keypair.pubkey, SOL_MINT.address, sol_amount)
        if token_amount:
            bank.fund_tokens(keypair.pubkey, token.address, token_amount)

    # Explicit blockhashes: the auto-nonce is process-global, so without
    # them the rendered transaction ids would depend on what ran earlier.
    transactions = [
        Transaction.build(
            attacker,
            [
                swap_instruction(
                    attacker.pubkey, pool, SOL_MINT.address, plan.frontrun_in, 0
                )
            ],
            recent_blockhash="table1-frontrun",
        ),
        Transaction.build(
            victim,
            [
                swap_instruction(
                    victim.pubkey, pool, SOL_MINT.address, victim_in, victim_min_out
                )
            ],
            recent_blockhash="table1-victim",
        ),
        Transaction.build(
            attacker,
            [
                swap_instruction(
                    attacker.pubkey, pool, token.address, plan.frontrun_out, 0
                )
            ],
            recent_blockhash="table1-backrun",
        ),
    ]

    actions = ["BUY", "BUY", "SELL"]
    senders = ["ATTACKER", "NORMAL", "ATTACKER"]
    amounts = [plan.frontrun_in, victim_in, plan.frontrun_out]
    rows: list[Table1Row] = []
    sol_before = bank.token_balance(attacker.pubkey, SOL_MINT.address)
    for order, (tx, action, sender, amount) in enumerate(
        zip(transactions, actions, senders, amounts), start=1
    ):
        price_before = market.spot_rate(pool, SOL_MINT.address)
        receipt = bank.execute_transaction(tx)
        if not receipt.success:
            raise ConfigError(f"example transaction failed: {receipt.error}")
        price_after = market.spot_rate(pool, SOL_MINT.address)
        rows.append(
            Table1Row(
                order=order,
                transaction_id=receipt.transaction_id,
                sender=sender,
                action=action,
                token=token.symbol,
                amount=amount,
                price_before_sol=price_before,
                price_after_sol=price_after,
            )
        )
    sol_after = bank.token_balance(attacker.pubkey, SOL_MINT.address)
    return Table1(
        rows=rows,
        attacker_profit_lamports=sol_after - sol_before,
        victim_slippage_bps=victim_slippage_bps,
    )
