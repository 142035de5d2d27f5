"""Agent-based workload generation.

Each behaviour class models one population the paper observes (or infers):

- :class:`~repro.agents.retail.RetailTrader` — native swaps, the victim pool
- :class:`~repro.agents.defensive.DefensiveUser` — length-1 bundles with
  sub-100K-lamport tips (Jupiter-style "MEV protection")
- :class:`~repro.agents.defensive.PriorityUser` — length-1 bundles with large
  tips, bundling purely for placement; both are one
  :class:`~repro.agents.defensive.LengthOneBundler` that differs only in
  its tip floor, trade bounds and label
- :class:`~repro.agents.arbitrage.ArbitrageBot` — short multi-swap bundles
- :class:`~repro.agents.app_backend.AppBackendBundler` — app bundles ending
  in a tip-only transaction (the paper's criterion-5 exclusion)
- :class:`~repro.agents.attacker.SandwichAttacker` — claims victims from the
  private mempool and lands front-run/victim/back-run bundles
- :class:`~repro.agents.disguised.DisguisedAttacker` — 4-transaction
  sandwiches the paper's methodology knowingly misses (lower-bound check)
"""

from repro.agents.base import (
    AgentContext,
    Behavior,
    GeneratedBundle,
    GroundTruth,
    Label,
    WalletPool,
)
from repro.agents.app_backend import AppBackendBundler
from repro.agents.arbitrage import ArbitrageBot
from repro.agents.attacker import SandwichAttacker
from repro.agents.defensive import DefensiveUser, PriorityUser
from repro.agents.disguised import DisguisedAttacker
from repro.agents.population import Population, PopulationConfig
from repro.agents.retail import RetailTrader

__all__ = [
    "AgentContext",
    "AppBackendBundler",
    "ArbitrageBot",
    "Behavior",
    "DefensiveUser",
    "DisguisedAttacker",
    "GeneratedBundle",
    "GroundTruth",
    "Label",
    "Population",
    "PopulationConfig",
    "PriorityUser",
    "RetailTrader",
    "SandwichAttacker",
    "WalletPool",
]
