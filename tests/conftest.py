"""Shared fixtures: worlds, campaigns, and funded trading setups.

Expensive artifacts (a finished campaign) are session-scoped; tests must not
mutate them. Cheap fixtures build fresh worlds per test.
"""

from __future__ import annotations

import socket

import pytest

from repro.collector import MeasurementCampaign
from repro.core import AnalysisPipeline
from repro.dex.market import MarketConfig
from repro.simulation import ScenarioConfig, SimulationEngine, small_scenario
from repro.simulation.config import TrendSpec
from repro.simulation.downtime import DowntimeSchedule, DowntimeWindow
from repro.solana.bank import Bank
from repro.solana.keys import Keypair


def tiny_scenario(seed: int = 11) -> ScenarioConfig:
    """A seconds-scale scenario for unit-level engine tests."""
    return ScenarioConfig(
        seed=seed,
        days=2,
        blocks_per_day=6,
        retail_per_day=TrendSpec(6.0, noise=0.0),
        defensive_per_day=TrendSpec(30.0, noise=0.0),
        priority_per_day=TrendSpec(8.0, noise=0.0),
        arbitrage_per_day=TrendSpec(10.0, noise=0.0),
        app_bundles_per_day=TrendSpec(4.0, noise=0.0),
        sandwiches_per_day=TrendSpec(8.0, noise=0.0),
        disguised_per_day=TrendSpec(0.0, noise=0.0),
        spike_probability=0.0,
        market=MarketConfig(num_meme_tokens=6, num_token_token_pools=2),
    )


@pytest.fixture
def held_port():
    """A local port another socket listens on, so binding it fails."""
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        yield holder.getsockname()[1]


@pytest.fixture
def fresh_world():
    """A fully wired but un-run simulation world."""
    return SimulationEngine(tiny_scenario()).world


@pytest.fixture
def run_world():
    """A tiny world after a full run (fresh per test; cheap)."""
    return SimulationEngine(tiny_scenario()).run()


@pytest.fixture(scope="session")
def small_campaign():
    """A finished small campaign with a fixed downtime window.

    Session-scoped: do not mutate. The downtime window is pinned so tests
    can assert on gap behaviour deterministically.
    """
    downtime = DowntimeSchedule([DowntimeWindow(1.25, 2.0, reason="pinned")])
    campaign = MeasurementCampaign(small_scenario(seed=7), downtime=downtime)
    return campaign.run()


@pytest.fixture(scope="session")
def small_report(small_campaign):
    """The analysis report over the session campaign."""
    return AnalysisPipeline().analyze_campaign(small_campaign)


@pytest.fixture
def funded_bank():
    """A bank with two funded keypairs (alice, bob)."""
    bank = Bank()
    alice = Keypair("alice")
    bob = Keypair("bob")
    bank.fund(alice, 10_000_000_000)
    bank.fund(bob, 10_000_000_000)
    return bank, alice, bob
