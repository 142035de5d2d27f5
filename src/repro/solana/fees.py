"""Transaction fee model: base fee plus an optional priority fee.

Mirrors the structure the paper describes (Section 2.1): a 5,000-lamport base
fee, plus an optional priority fee paid to the validator for faster
acceptance. Priority fees are requested through compute-budget instructions,
as on mainnet.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import BASE_FEE_LAMPORTS
from repro.solana.instruction import (
    COMPUTE_BUDGET_PROGRAM_ID,
    Instruction,
    encode_payload,
    int_field,
)
from repro.solana.transaction import Transaction

DEFAULT_COMPUTE_UNITS = 200_000
MICRO_LAMPORTS_PER_LAMPORT = 1_000_000


def set_compute_unit_price(micro_lamports: int) -> Instruction:
    """Build a compute-budget instruction requesting a priority fee."""
    if micro_lamports < 0:
        raise ValueError(f"compute unit price must be >= 0, got {micro_lamports}")
    payload = {"op": "set_compute_unit_price", "micro_lamports": micro_lamports}
    return Instruction(
        program_id=COMPUTE_BUDGET_PROGRAM_ID,
        data=encode_payload(payload),
    )


def set_compute_unit_limit(units: int) -> Instruction:
    """Build a compute-budget instruction capping compute units."""
    if units <= 0:
        raise ValueError(f"compute unit limit must be positive, got {units}")
    payload = {"op": "set_compute_unit_limit", "units": units}
    return Instruction(
        program_id=COMPUTE_BUDGET_PROGRAM_ID,
        data=encode_payload(payload),
    )


@dataclass(frozen=True)
class FeeBreakdown:
    """Fee components of one transaction."""

    base_fee: int
    priority_fee: int

    @property
    def total(self) -> int:
        """Total lamports charged to the fee payer."""
        return self.base_fee + self.priority_fee


class FeeSchedule:
    """Computes the fee owed by a transaction."""

    def __init__(self, base_fee_lamports: int = BASE_FEE_LAMPORTS) -> None:
        if base_fee_lamports < 0:
            raise ValueError(f"base fee must be >= 0, got {base_fee_lamports}")
        self._base_fee = base_fee_lamports

    @property
    def base_fee_lamports(self) -> int:
        """The flat per-transaction fee."""
        return self._base_fee

    def breakdown(self, tx: Transaction) -> FeeBreakdown:
        """Compute base and priority components for ``tx``.

        The priority fee is ``compute_units * unit_price`` (in micro-lamports,
        rounded up), using the transaction's requested limit or the default.

        Raises:
            ProgramError: on a malformed compute-budget payload: not a
                JSON object, a field missing or not an integer, or a value
                the builders above refuse (a negative price, a limit
                below one).
        """
        unit_price = 0
        units = DEFAULT_COMPUTE_UNITS
        for instruction in tx.message.instructions:
            if instruction.program_id != COMPUTE_BUDGET_PROGRAM_ID:
                continue
            payload = instruction.payload()
            if payload.get("op") == "set_compute_unit_price":
                unit_price = int_field(payload, "micro_lamports")
            elif payload.get("op") == "set_compute_unit_limit":
                units = int_field(payload, "units", minimum=1)
        priority = -(-units * unit_price // MICRO_LAMPORTS_PER_LAMPORT)
        return FeeBreakdown(base_fee=self._base_fee, priority_fee=priority)
