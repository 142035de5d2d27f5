"""Golden-master corpus: frozen expectations, bless workflow, tampering."""

from __future__ import annotations

import json

import pytest

from repro.conformance.golden import (
    GOLDEN_FORMAT,
    bless_corpus,
    check_corpus,
    check_fixture,
    corpus_fixtures,
    default_corpus_dir,
    load_fixture,
    verify_fixture_bytes,
    write_fixture,
)
from repro.conformance.scenarios import CORPUS_SCENARIOS, selftest_scenario
from repro.conformance.simulation import SIMULATION_CORPUS
from repro.errors import ConfigError, ConformanceError, StoreError

pytestmark = pytest.mark.golden


def test_checked_in_corpus_reproduces():
    """The repository's own corpus must pass, fixture by fixture."""
    from repro.scenarios.packs import CORPUS_PACKS

    corpus = default_corpus_dir()
    checks = check_corpus(corpus)
    assert len(checks) == (
        len(CORPUS_SCENARIOS) + len(CORPUS_PACKS) + len(SIMULATION_CORPUS)
    )
    for check in checks:
        assert check.passed, check.render()


def test_checked_in_fixtures_are_self_consistent():
    for path in corpus_fixtures(default_corpus_dir()):
        verify_fixture_bytes(path)


def test_bless_is_reproducible_byte_for_byte(tmp_path):
    # The simulation fixtures are left out: each is a full campaign, and
    # test_checked_in_corpus_reproduces already reproduces them from a
    # fresh process's run.
    first = bless_corpus(tmp_path / "a", simulations=())
    second = bless_corpus(tmp_path / "b", simulations=())
    for left, right in zip(first, second):
        assert left.read_bytes() == right.read_bytes()


def test_tampered_expected_payload_fails_check(tmp_path):
    scenario = selftest_scenario(11, bundles=30)
    path = write_fixture(scenario, tmp_path)
    document = json.loads(path.read_text())
    document["expected"]["totals"]["victim_loss_quote"] += 1.0
    document["digest"] = "0" * 64
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    check = check_fixture(path)
    assert not check.passed
    assert check.differences, "a digest mismatch must carry the field diff"


def test_hand_edit_without_rebless_is_caught(tmp_path):
    scenario = selftest_scenario(11, bundles=30)
    path = write_fixture(scenario, tmp_path)
    document = json.loads(path.read_text())
    document["expected"]["totals"]["victim_loss_quote"] += 1.0
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    with pytest.raises(ConformanceError, match="self-inconsistent"):
        verify_fixture_bytes(path)


def test_scenario_fingerprint_drift_fails_check(tmp_path):
    scenario = selftest_scenario(11, bundles=30)
    path = write_fixture(scenario, tmp_path)
    document = json.loads(path.read_text())
    document["scenario"]["bundles"] = 31
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    check = check_fixture(path)
    assert not check.passed
    assert "fingerprint drifted" in check.reason


def test_empty_corpus_is_a_hard_error(tmp_path):
    with pytest.raises(ConfigError, match="no fixtures"):
        check_corpus(tmp_path)


def test_format_version_mismatch_is_rejected(tmp_path):
    scenario = selftest_scenario(11, bundles=30)
    path = write_fixture(scenario, tmp_path)
    document = json.loads(path.read_text())
    document["format"] = GOLDEN_FORMAT + 1
    path.write_text(json.dumps(document) + "\n")
    with pytest.raises(StoreError, match="re-bless"):
        load_fixture(path)


def test_non_json_fixture_is_a_store_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(StoreError, match="not JSON"):
        load_fixture(path)


def test_missing_keys_are_a_store_error(tmp_path):
    path = tmp_path / "hollow.json"
    path.write_text(json.dumps({"format": GOLDEN_FORMAT}))
    with pytest.raises(StoreError, match="lacks"):
        load_fixture(path)


def test_corpus_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_GOLDEN_DIR", str(tmp_path / "elsewhere"))
    assert default_corpus_dir() == tmp_path / "elsewhere"
