"""Population assembly: every behaviour wired to a shared context."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.app_backend import AppBackendBundler, AppBackendConfig
from repro.agents.arbitrage import ArbitrageBot, ArbitrageConfig
from repro.agents.attacker import SandwichAttacker, SandwichConfig
from repro.agents.base import AgentContext, Behavior
from repro.agents.defensive import (
    DefensiveConfig,
    DefensiveUser,
    PriorityConfig,
    PriorityUser,
)
from repro.agents.disguised import DisguisedAttacker, DisguiseConfig
from repro.agents.opportunist import OpportunisticAttacker, OpportunistConfig
from repro.agents.retail import RetailTrader, RetailConfig
from repro.utils.rng import DeterministicRNG


@dataclass(frozen=True)
class PopulationConfig:
    """Per-class behaviour configuration."""

    retail: RetailConfig = field(default_factory=RetailConfig)
    defensive: DefensiveConfig = field(default_factory=DefensiveConfig)
    priority: PriorityConfig = field(default_factory=PriorityConfig)
    arbitrage: ArbitrageConfig = field(default_factory=ArbitrageConfig)
    app_backend: AppBackendConfig = field(default_factory=AppBackendConfig)
    sandwich: SandwichConfig = field(default_factory=SandwichConfig)
    disguise: DisguiseConfig = field(default_factory=DisguiseConfig)
    opportunist: OpportunistConfig = field(default_factory=OpportunistConfig)


class Population:
    """All behaviour instances sharing one agent context."""

    def __init__(
        self,
        ctx: AgentContext,
        rng: DeterministicRNG,
        config: PopulationConfig | None = None,
    ) -> None:
        config = config or PopulationConfig()
        self.config = config
        agent_rng = rng.child("population")
        self.retail = RetailTrader(ctx, agent_rng, config.retail)
        self.defensive = DefensiveUser(ctx, agent_rng, config.defensive)
        self.priority = PriorityUser(ctx, agent_rng, config.priority)
        self.arbitrage = ArbitrageBot(ctx, agent_rng, config.arbitrage)
        self.app_backend = AppBackendBundler(ctx, agent_rng, config.app_backend)
        self.attacker = SandwichAttacker(
            ctx, agent_rng, self.retail, config.sandwich
        )
        self.disguised = DisguisedAttacker(
            ctx,
            agent_rng.child("disguised"),
            self.retail,
            disguise=config.disguise,
            config=config.sandwich,
        )
        self.opportunist = OpportunisticAttacker(
            ctx,
            agent_rng.child("opportunist"),
            self.retail,
            config=config.sandwich,
            opportunist=config.opportunist,
        )

    def behaviors(self) -> dict[str, Behavior]:
        """All behaviours by event-class name (the engine's schedule keys)."""
        return {
            "retail": self.retail,
            "defensive": self.defensive,
            "priority": self.priority,
            "arbitrage": self.arbitrage,
            "app_bundle": self.app_backend,
            "sandwich": self.attacker,
            "disguised": self.disguised,
            "opportunist": self.opportunist,
        }
