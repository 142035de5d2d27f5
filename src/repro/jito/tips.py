"""Jito tips: canonical tip accounts, tip construction and extraction,
and the block-level tip-percentile tracker.

Tips are plain lamport transfers to one of eight well-known accounts; the
block engine uses them as the bundle-auction currency, and the paper uses
them to separate defensive bundles (tip <= 100,000 lamports) from
priority-seeking ones, and to characterize attack bundles (median tip above
2,000,000 lamports).
"""

from __future__ import annotations

from functools import lru_cache

from repro.constants import (
    HIGH_TIP_P95_LAMPORTS,
    MIN_JITO_TIP_LAMPORTS,
    NUM_JITO_TIP_ACCOUNTS,
)
from repro.errors import BundleError, ProgramError
from repro.solana.instruction import (
    COMPUTE_BUDGET_PROGRAM_ID,
    SYSTEM_PROGRAM_ID,
    Instruction,
)
from repro.solana.keys import Pubkey
from repro.solana.system_program import decode_transfer, transfer
from repro.solana.transaction import Transaction
from repro.utils.stats import percentile


@lru_cache(maxsize=1)
def tip_accounts() -> tuple[Pubkey, ...]:
    """The eight canonical Jito tip-payment accounts."""
    return tuple(
        Pubkey.from_seed(f"jito-tip-account:{index}")
        for index in range(NUM_JITO_TIP_ACCOUNTS)
    )


@lru_cache(maxsize=1)
def _tip_account_set() -> frozenset[str]:
    return frozenset(account.to_base58() for account in tip_accounts())


def is_tip_account(pubkey: Pubkey | str) -> bool:
    """Whether ``pubkey`` is one of the canonical tip accounts."""
    encoded = pubkey if isinstance(pubkey, str) else pubkey.to_base58()
    return encoded in _tip_account_set()


def build_tip_instruction(
    payer: Pubkey, lamports: int, account_index: int = 0
) -> Instruction:
    """Build a tip transfer to tip account ``account_index``.

    Raises:
        BundleError: if the tip is below Jito's 1,000-lamport minimum.
    """
    if lamports < MIN_JITO_TIP_LAMPORTS:
        raise BundleError(
            f"Jito tip must be at least {MIN_JITO_TIP_LAMPORTS} lamports, "
            f"got {lamports}"
        )
    account = tip_accounts()[account_index % NUM_JITO_TIP_ACCOUNTS]
    return transfer(payer, account, lamports)


def _tip_lamports(instruction: Instruction) -> int | None:
    """Lamports ``instruction`` pays a tip account, or None if it is no tip.

    A tip is a system transfer the system program would accept, to a tip
    account; a malformed transfer is no tip (its transaction fails).
    """
    if instruction.program_id != SYSTEM_PROGRAM_ID:
        return None
    try:
        _source, dest, lamports = decode_transfer(instruction)
    except ProgramError:
        return None
    return lamports if is_tip_account(dest) else None


def extract_tip_lamports(tx: Transaction) -> int:
    """Total lamports a transaction pays to Jito tip accounts."""
    total = 0
    for instruction in tx.message.instructions:
        lamports = _tip_lamports(instruction)
        if lamports is not None:
            total += lamports
    return total


def is_tip_only_transaction(tx: Transaction) -> bool:
    """Whether a transaction does nothing but tip a Jito tip account.

    This is the pattern the paper's fifth criterion excludes: trading apps
    that implement Jito in the backend append a final tip-only transaction
    to an otherwise length-two bundle.
    """
    saw_tip = False
    for instruction in tx.message.instructions:
        if instruction.program_id == COMPUTE_BUDGET_PROGRAM_ID:
            continue
        if _tip_lamports(instruction) is None:
            return False
        saw_tip = True
    return saw_tip


class TipPercentileTracker:
    """Per-block tip percentiles — the simulator's "Jito dashboard".

    The paper reads the average 95th-percentile tip within a block from
    Jito's public dashboard (~0.002 SOL); this tracker computes the same
    statistic from the simulated stream.
    """

    def __init__(self) -> None:
        self._block_p95: list[float] = []

    def record_block(self, tips_lamports: list[int]) -> None:
        """Record the tips of all bundles landed in one block."""
        if tips_lamports:
            self._block_p95.append(percentile(sorted(tips_lamports), 95))

    @property
    def blocks_observed(self) -> int:
        """Number of blocks that landed at least one bundle."""
        return len(self._block_p95)

    def average_p95(self) -> float:
        """Mean of per-block 95th-percentile tips (lamports).

        Falls back to the paper's dashboard figure when no blocks carried
        bundles yet, so threshold logic stays well-defined at startup.
        """
        if not self._block_p95:
            return float(HIGH_TIP_P95_LAMPORTS)
        return sum(self._block_p95) / len(self._block_p95)

    def high_tip_threshold(self) -> float:
        """A "high tip" is anything above 50% of the average per-block p95
        (the latency study the paper cites uses this definition)."""
        return 0.5 * self.average_p95()
