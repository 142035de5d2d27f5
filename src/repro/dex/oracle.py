"""Price oracles: SOL/USD conversion and pool-implied token prices.

The paper converts SOL amounts to USD at a single reference rate (footnote 6)
and explicitly declines to price non-SOL tokens — "there is no existing way
to find the value of a non-widely popularized coin at the time of
transaction execution". The oracle mirrors both choices.
"""

from __future__ import annotations

from repro.constants import LAMPORTS_PER_SOL, SOL_USD_RATE
from repro.errors import ConfigError


class PriceOracle:
    """Converts between lamports, SOL, and USD at a fixed reference rate."""

    def __init__(self, usd_per_sol: float = SOL_USD_RATE) -> None:
        if usd_per_sol <= 0:
            raise ConfigError(f"usd_per_sol must be positive, got {usd_per_sol}")
        self._usd_per_sol = usd_per_sol

    @property
    def usd_per_sol(self) -> float:
        """The reference SOL/USD rate."""
        return self._usd_per_sol

    def sol_to_usd(self, sol: float) -> float:
        """Convert a SOL amount to USD."""
        return sol * self._usd_per_sol

    def lamports_to_usd(self, lamports: int | float) -> float:
        """Convert lamports to USD."""
        return lamports / LAMPORTS_PER_SOL * self._usd_per_sol

    def usd_to_lamports(self, usd: float) -> int:
        """Convert USD to lamports (rounded to the nearest lamport)."""
        return int(round(usd / self._usd_per_sol * LAMPORTS_PER_SOL))
