"""Simulation golden fixtures: the simulator's own output, pinned."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.agents.base import Label
from repro.analysis.integrity import build_collection_integrity
from repro.archive.checkpoint import scenario_fingerprint
from repro.collector.campaign import MeasurementCampaign
from repro.collector.detail_fetcher import DetailFetcherConfig
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
    store_digest,
    truth_digest,
)
from repro.errors import ConfigError, StoreError
from repro.faults import preset_plan
from repro.simulation import paper_scenario, small_scenario
from repro.utils.serialization import dumps

pytestmark = pytest.mark.golden

#: One day of the small preset: a full campaign in a fraction of a second.
ONE_DAY = SimulationRecipe(
    "simulation-one-day", "small_scenario", {"seed": 7, "days": 1}
)

#: The digests of :func:`test_contested_run_reproduces`'s campaign: 348
#: collected bundles, 19 of them rival bids.
CONTESTED_STORE_SHA256 = (
    "14690b3b3a936d13b6b81ec55cac8508d5b1e347030850040c64aed4818e199b"
)
CONTESTED_TRUTH_SHA256 = (
    "1b45de6a9f61681e9de4ce88c2c844fbcb82824a68aa371d8b5cf703ca6eb1a2"
)

#: The digests of :func:`test_chaos_retry_run_reproduces`'s campaign: the
#: collected store, and the fault log as ``repro chaos`` writes it to
#: ``fault_log.jsonl``.
CHAOS_STORE_SHA256 = (
    "1de3823cd5c400f15d39c7ca37441131217080aaaeee312626a262117c628e41"
)
CHAOS_FAULT_LOG_SHA256 = (
    "fcf37b5f2d6d456d4cd5bfe3cf20c935889920a222e73e99ee98659d1b0a9d69"
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


def test_contested_run_reproduces():
    """Pin the rival-bid path, which no corpus fixture reaches.

    Every preset leaves ``contested_probability`` at 0.0, so the corpus
    never builds a rival sandwich. With it at 1.0 every attack draws a
    rival bid for the same victim, and the collected bundles, their details
    and the ground truth are pinned byte for byte.
    """
    scenario = small_scenario(seed=7, days=2)
    population = scenario.population
    contested = dataclasses.replace(
        scenario,
        population=dataclasses.replace(
            population,
            sandwich=dataclasses.replace(
                population.sandwich, contested_probability=1.0
            ),
        ),
    )
    result = MeasurementCampaign(contested).run()
    truth = result.world.ground_truth
    rivals = [
        bundle_id
        for bundle_id in truth.bundle_ids_with_label(Label.SANDWICH)
        if "rival_of" in truth.get(bundle_id).metadata
    ]
    assert (len(result.store), len(rivals)) == (348, 19)
    assert store_digest(result.store) == CONTESTED_STORE_SHA256
    assert truth_digest(truth) == CONTESTED_TRUTH_SHA256


def test_chaos_retry_run_reproduces():
    """Pin the collector's retry paths, which no corpus fixture reaches.

    Only ``simulation-small``'s sampled downtime makes the poller retry,
    and the detail fetcher retries nothing at its default ``max_retries``
    of 0. This is the campaign ``repro chaos --small --days 2 --seed 9
    --plan storm`` runs: the storm plan's 429s and 503s make both retry,
    and run some polls and batches out of retries.
    """
    result = MeasurementCampaign(
        small_scenario(seed=9, days=2),
        fetcher_config=DetailFetcherConfig(max_retries=2),
        fault_plan=preset_plan("storm"),
    ).run()
    integrity = build_collection_integrity(result)
    assert (integrity.poll_retries, integrity.detail_retries) == (41, 18)
    assert (integrity.polls_failed, integrity.batches_failed) == (3, 2)
    assert len(result.store) == 521
    assert store_digest(result.store) == CHAOS_STORE_SHA256
    fault_log = "".join(
        dumps(fault) + "\n" for fault in result.faults.fault_log_json()
    )
    assert (
        hashlib.sha256(fault_log.encode()).hexdigest()
        == CHAOS_FAULT_LOG_SHA256
    )
