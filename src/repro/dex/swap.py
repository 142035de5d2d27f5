"""The on-chain DEX program: pool registry, swap instruction, processor.

Reserves are the pool address's token balances in the bank, so swaps made
inside a failed bundle roll back together with everything else.
"""

from __future__ import annotations

from repro.errors import (
    ConfigError,
    PoolNotFoundError,
    ProgramError,
    SlippageExceededError,
)
from repro.dex.pool import PoolSpec, execution_rate, quote_constant_product
from repro.solana.instruction import (
    DEX_PROGRAM_ID,
    AccountMeta,
    Instruction,
    encode_payload,
    int_field,
    pubkey_field,
)
from repro.solana.keys import Pubkey
from repro.solana.program import BankView


class PoolRegistry:
    """All pools known to the DEX program, with pair lookup."""

    def __init__(self) -> None:
        self._pools: dict[Pubkey, PoolSpec] = {}
        self._by_pair: dict[frozenset[Pubkey], list[PoolSpec]] = {}

    def __len__(self) -> int:
        return len(self._pools)

    def add(self, pool: PoolSpec) -> None:
        """Register a pool; idempotent for identical specs."""
        existing = self._pools.get(pool.address)
        if existing is not None:
            if existing != pool:
                raise ProgramError(
                    f"pool address collision at {pool.address.to_base58()[:8]}"
                )
            return
        self._pools[pool.address] = pool
        key = frozenset((pool.mint_a.address, pool.mint_b.address))
        self._by_pair.setdefault(key, []).append(pool)

    def get(self, address: Pubkey) -> PoolSpec:
        """Look up a pool by address.

        Raises:
            PoolNotFoundError: if unknown.
        """
        pool = self._pools.get(address)
        if pool is None:
            raise PoolNotFoundError(f"no pool at {address.to_base58()}")
        return pool

    def for_pair(self, mint_x: Pubkey, mint_y: Pubkey) -> list[PoolSpec]:
        """All pools trading the (unordered) pair."""
        return list(self._by_pair.get(frozenset((mint_x, mint_y)), []))

    def all_pools(self) -> list[PoolSpec]:
        """Every registered pool."""
        return list(self._pools.values())


def swap_instruction(
    owner: Pubkey,
    pool: PoolSpec,
    mint_in: Pubkey,
    amount_in: int,
    min_amount_out: int,
) -> Instruction:
    """Build a swap: trade ``amount_in`` of ``mint_in`` on ``pool``.

    ``min_amount_out`` encodes the user's slippage tolerance: execution fails
    (and with it any enclosing bundle) if the pool can no longer deliver that
    many output tokens — exactly the mechanism the paper describes as the
    victim's only cap on sandwich extraction.
    """
    if amount_in <= 0:
        raise ValueError(f"amount_in must be positive, got {amount_in}")
    if min_amount_out < 0:
        raise ValueError(f"min_amount_out must be >= 0, got {min_amount_out}")
    payload = {
        "op": "swap",
        "pool": pool.address.to_base58(),
        "mint_in": mint_in.to_base58(),
        "amount_in": amount_in,
        "min_amount_out": min_amount_out,
    }
    return Instruction(
        program_id=DEX_PROGRAM_ID,
        accounts=(
            AccountMeta(owner, is_signer=True, is_writable=True),
            AccountMeta(pool.address, is_writable=True),
        ),
        data=encode_payload(payload),
    )


class DexProgram:
    """Processor for the DEX program; register on the bank at genesis."""

    def __init__(self, registry: PoolRegistry) -> None:
        self._registry = registry

    @property
    def registry(self) -> PoolRegistry:
        """The pool registry this program serves."""
        return self._registry

    def quote(self, bank: BankView, pool: PoolSpec, mint_in: Pubkey, amount_in: int) -> int:
        """Read-only output quote against current bank-held reserves."""
        mint_out = pool.other_mint(mint_in)
        reserve_in = bank.token_balance(pool.address, mint_in)
        reserve_out = bank.token_balance(pool.address, mint_out.address)
        return quote_constant_product(reserve_in, reserve_out, amount_in, pool.fee_bps)

    def __call__(self, bank: BankView, instruction: Instruction) -> None:
        """Execute a swap instruction.

        Raises:
            ProgramError: malformed payload, a mint the pool does not
                trade, or a missing signer.
            SlippageExceededError: output below ``min_amount_out``.
        """
        payload = instruction.payload()
        if payload.get("op") != "swap":
            raise ProgramError(f"dex: unknown op {payload.get('op')!r}")
        if len(instruction.accounts) != 2:
            raise ProgramError(
                f"dex swap expects 2 accounts, got {len(instruction.accounts)}"
            )

        owner = instruction.accounts[0].pubkey
        if not bank.is_signer(owner):
            raise ProgramError(f"swap owner {owner.to_base58()} did not sign")

        pool = self._registry.get(pubkey_field(payload, "pool"))
        mint_in = pubkey_field(payload, "mint_in")
        try:
            mint_out = pool.other_mint(mint_in)
        except ConfigError as exc:
            raise ProgramError(f"dex: {exc}") from exc
        amount_in = int_field(payload, "amount_in", minimum=1)
        min_amount_out = int_field(payload, "min_amount_out")

        amount_out = self.quote(bank, pool, mint_in, amount_in)
        if amount_out < min_amount_out:
            raise SlippageExceededError(
                f"swap on {pool.pair_name} would deliver {amount_out}, "
                f"below min_amount_out {min_amount_out}"
            )
        if amount_out <= 0:
            raise SlippageExceededError(
                f"swap on {pool.pair_name} would deliver nothing"
            )

        bank.transfer_tokens(owner, pool.address, mint_in, amount_in)
        bank.transfer_tokens(pool.address, owner, mint_out.address, amount_out)
        bank.emit_event(
            {
                "type": "swap",
                "pool": pool.address.to_base58(),
                "owner": owner.to_base58(),
                "mint_in": mint_in.to_base58(),
                "mint_out": mint_out.address.to_base58(),
                "amount_in": amount_in,
                "amount_out": amount_out,
                "rate": execution_rate(amount_in, amount_out),
            }
        )
