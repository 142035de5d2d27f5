"""A Jupiter-like swap router/aggregator.

Quotes the best direct route for a pair, applies the user's slippage
tolerance, and builds the swap transaction. The paper found that Jupiter's
"MEV protection" option wraps the resulting transaction in a length-one Jito
bundle; that wrapping lives in :class:`repro.agents.defensive.LengthOneBundler`,
which builds its swap leg with this router for defensive and priority users
alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dex.pool import PoolSpec
from repro.dex.slippage import min_out_with_slippage
from repro.dex.swap import DexProgram, swap_instruction
from repro.errors import InsufficientLiquidityError, PoolNotFoundError
from repro.solana.bank import Bank
from repro.solana.fees import set_compute_unit_price
from repro.solana.instruction import Instruction
from repro.solana.keys import Keypair, Pubkey
from repro.solana.transaction import Transaction


@dataclass(frozen=True)
class RouteQuote:
    """A quoted direct route: pool, expected output, and slippage floor."""

    pool: PoolSpec
    mint_in: Pubkey
    mint_out: Pubkey
    amount_in: int
    expected_out: int
    min_amount_out: int
    slippage_bps: int


class Router:
    """Best-direct-route aggregation over a pool registry."""

    def __init__(self, bank: Bank, program: DexProgram) -> None:
        self._bank = bank
        self._program = program

    def quote(
        self,
        mint_in: Pubkey,
        mint_out: Pubkey,
        amount_in: int,
        slippage_bps: int = 50,
    ) -> RouteQuote:
        """Quote the best direct pool for the pair.

        Raises:
            PoolNotFoundError: if no direct pool trades the pair.
        """
        candidates = self._program.registry.for_pair(mint_in, mint_out)
        if not candidates:
            raise PoolNotFoundError(
                f"no direct pool for {mint_in.to_base58()[:6]} -> "
                f"{mint_out.to_base58()[:6]}"
            )
        best_pool: PoolSpec | None = None
        best_out = -1
        for pool in candidates:
            try:
                out = self._program.quote(self._bank, pool, mint_in, amount_in)
            except InsufficientLiquidityError:
                continue
            if out > best_out:
                best_out = out
                best_pool = pool
        if best_pool is None or best_out <= 0:
            raise InsufficientLiquidityError(
                f"no pool can fill {amount_in} of {mint_in.to_base58()[:6]}"
            )
        return RouteQuote(
            pool=best_pool,
            mint_in=mint_in,
            mint_out=mint_out,
            amount_in=amount_in,
            expected_out=best_out,
            min_amount_out=min_out_with_slippage(best_out, slippage_bps),
            slippage_bps=slippage_bps,
        )

    def build_swap_instruction(self, owner: Pubkey, quote: RouteQuote) -> Instruction:
        """Materialize a quote into a swap instruction for ``owner``."""
        return swap_instruction(
            owner=owner,
            pool=quote.pool,
            mint_in=quote.mint_in,
            amount_in=quote.amount_in,
            min_amount_out=quote.min_amount_out,
        )

    def build_swap_transaction(
        self,
        owner: Keypair,
        quote: RouteQuote,
        priority_fee_micro_lamports: int = 0,
        recent_blockhash: str = "",
    ) -> Transaction:
        """Build and sign a complete swap transaction.

        A non-zero ``priority_fee_micro_lamports`` prepends a compute-budget
        instruction — the native (non-Jito) way to buy priority.
        """
        instructions: list[Instruction] = []
        if priority_fee_micro_lamports > 0:
            instructions.append(set_compute_unit_price(priority_fee_micro_lamports))
        instructions.append(self.build_swap_instruction(owner.pubkey, quote))
        return Transaction.build(
            owner, instructions, recent_blockhash=recent_blockhash
        )
