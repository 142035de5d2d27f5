"""Simulation golden fixtures: the simulator's own output, pinned."""

from __future__ import annotations

import json

import pytest

from repro.archive.checkpoint import scenario_fingerprint
from repro.conformance.canon import digest
from repro.conformance.golden import (
    check_fixture,
    default_corpus_dir,
    fixture_path,
    load_fixture,
    write_simulation_fixture,
)
from repro.conformance.simulation import (
    SIMULATION_CORPUS,
    SimulationRecipe,
)
from repro.errors import ConfigError, StoreError
from repro.simulation import paper_scenario, small_scenario

pytestmark = pytest.mark.golden

#: One day of the small preset: a full campaign in a fraction of a second.
ONE_DAY = SimulationRecipe(
    "simulation-one-day", "small_scenario", {"seed": 7, "days": 1}
)


@pytest.fixture(scope="module")
def blessed(tmp_path_factory):
    """The one-day fixture, blessed once for the module."""
    return write_simulation_fixture(ONE_DAY, tmp_path_factory.mktemp("sim"))


def _edited(blessed, tmp_path, edit):
    """A copy of the blessed fixture with ``edit`` applied to its document."""
    document = json.loads(blessed.read_text())
    edit(document)
    path = tmp_path / blessed.name
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def test_corpus_recipes_are_the_pinned_presets():
    recipes = {recipe.name: recipe for recipe in SIMULATION_CORPUS}
    assert recipes["simulation-small"].config() == small_scenario(seed=7)
    assert recipes["simulation-paper-2d"].config() == paper_scenario(
        seed=2025, days=2
    )


@pytest.mark.parametrize("recipe", SIMULATION_CORPUS, ids=lambda r: r.name)
def test_checked_in_fixture_names_its_recipe(recipe):
    document = load_fixture(fixture_path(default_corpus_dir(), recipe.name))
    assert document["kind"] == "simulation"
    assert document["scenario"] == recipe.to_json()
    assert document["scenario_fingerprint"] == scenario_fingerprint(
        recipe.config()
    )
    counts = document["expected"]["counts"]
    assert counts["bundles_collected"] <= counts["bundles_landed"]
    assert counts["sandwiches"] > 0
    assert counts["sandwiches"] == (
        document["expected"]["report"]["totals"]["sandwich_count"]
    )


def test_blessed_fixture_reproduces(blessed):
    document = load_fixture(blessed)
    assert document["kind"] == "simulation"
    assert set(document["expected"]) == {
        "counts", "report", "store_sha256", "truth_sha256",
    }
    check = check_fixture(blessed)
    assert check.passed, check.render()
    assert check.name == "simulation-one-day"


def test_a_changed_store_digest_fails_with_the_field(blessed, tmp_path):
    def edit(document):
        document["expected"]["store_sha256"] = "0" * 64
        document["digest"] = digest(document["expected"])

    check = check_fixture(_edited(blessed, tmp_path, edit))
    assert not check.passed
    assert any("store_sha256" in str(diff) for diff in check.differences)


def test_preset_argument_drift_fails_before_running(blessed, tmp_path):
    def edit(document):
        document["scenario"]["args"]["seed"] = 8

    check = check_fixture(_edited(blessed, tmp_path, edit))
    assert not check.passed
    assert "simulation fingerprint drifted" in check.reason


def test_unknown_preset_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown simulation preset"):
        SimulationRecipe.from_json(
            {"name": "x", "preset": "huge_scenario", "args": {}}
        )
    with pytest.raises(ConfigError, match="bad arguments"):
        SimulationRecipe("x", "small_scenario", {"weeks": 2}).config()


def test_unknown_fixture_kind_is_a_store_error(blessed, tmp_path):
    def edit(document):
        document["kind"] = "hologram"

    with pytest.raises(StoreError, match="unknown kind"):
        check_fixture(_edited(blessed, tmp_path, edit))
