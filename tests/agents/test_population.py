"""Population assembly tests."""

import pytest

from repro.agents.base import Label


class TestPopulation:
    def test_all_behaviors_present(self, fresh_world):
        behaviors = fresh_world.population.behaviors()
        assert set(behaviors) == {
            "retail",
            "defensive",
            "priority",
            "arbitrage",
            "app_bundle",
            "sandwich",
            "disguised",
            "opportunist",
        }

    def test_attackers_share_victim_source(self, fresh_world):
        population = fresh_world.population
        assert population.attacker.retail is population.retail
        assert population.disguised.retail is population.retail
        assert population.opportunist.retail is population.retail

    def test_behavior_rngs_are_distinct_streams(self, fresh_world):
        population = fresh_world.population
        draws = {
            name: behavior.rng.child("probe").random()
            for name, behavior in population.behaviors().items()
        }
        # No two behaviours share a randomness stream.
        assert len(set(draws.values())) == len(draws)

    def test_every_bundle_behavior_produces_its_label(self, fresh_world):
        behaviors = fresh_world.population.behaviors()
        for name, label in (
            ("defensive", Label.DEFENSIVE),
            ("priority", Label.PRIORITY),
            ("arbitrage", Label.ARBITRAGE),
            ("app_bundle", Label.APP_BUNDLE),
        ):
            generated = behaviors[name].generate()
            assert generated is not None
            assert generated.label is label
