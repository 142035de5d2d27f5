"""The selftest driver: wiring, metrics, and failure propagation."""

from __future__ import annotations

import json

import pytest

from repro.conformance.golden import bless_corpus
from repro.conformance.selftest import (
    DEFAULT_SEEDS,
    LEVEL_BUNDLES,
    run_selftest,
)
from repro.errors import ConfigError
from repro.obs.registry import MetricsRegistry


@pytest.fixture(scope="module")
def blessed_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("selftest-corpus")
    bless_corpus(corpus, simulations=())
    return corpus


def test_quick_level_passes_on_one_seed(blessed_corpus, tmp_path):
    metrics = MetricsRegistry()
    lines: list[str] = []
    report = run_selftest(
        level="quick",
        seeds=(11,),
        corpus_dir=blessed_corpus,
        jobs=2,
        metrics=metrics,
        emit=lines.append,
        workdir=tmp_path,
    )
    assert report.passed, report.render()
    # golden + differential + metamorphic + oracle sensitivity, plus one
    # pack differential per corpus pack.
    from repro.scenarios.packs import CORPUS_PACKS

    expected = 4 + len(CORPUS_PACKS)
    assert len(report.checks) == expected
    assert len(lines) == expected
    families = {check.family for check in report.checks}
    assert families == {
        "golden", "differential", "metamorphic", "oracle", "pack",
    }
    names = set(metrics.snapshot()["metrics"])
    assert "conformance_checks_total" in names
    assert "conformance_check_seconds" in names


def test_report_serializes_for_ci_logs(blessed_corpus, tmp_path):
    report = run_selftest(
        level="quick",
        seeds=(11,),
        corpus_dir=blessed_corpus,
        jobs=2,
        workdir=tmp_path,
    )
    document = json.loads(json.dumps(report.to_json()))
    assert document["level"] == "quick"
    assert document["passed"] is True
    assert document["seeds"] == [11]
    assert all("seconds" in check for check in document["checks"])


def test_unknown_level_is_rejected():
    with pytest.raises(ConfigError, match="level"):
        run_selftest(level="exhaustive")


def test_empty_seed_list_is_rejected():
    with pytest.raises(ConfigError, match="seed"):
        run_selftest(seeds=())


def test_empty_corpus_fails_the_golden_check_not_the_run(tmp_path):
    report = run_selftest(
        level="quick",
        seeds=(11,),
        corpus_dir=tmp_path / "nowhere",
        jobs=2,
        workdir=tmp_path / "scratch",
    )
    assert not report.passed
    golden = [c for c in report.checks if c.family == "golden"]
    assert len(golden) == 1 and not golden[0].passed
    assert "no fixtures" in golden[0].detail
    # The rest of the battery still ran and passed.
    others = [c for c in report.checks if c.family != "golden"]
    assert others and all(c.passed for c in others)


def test_default_seeds_are_the_ci_contract():
    assert DEFAULT_SEEDS == (11, 77, 20250806)
    assert set(LEVEL_BUNDLES) == {"quick", "full"}
    assert LEVEL_BUNDLES["full"] > LEVEL_BUNDLES["quick"]


@pytest.mark.slow
def test_full_level_passes_on_one_seed(blessed_corpus, tmp_path):
    report = run_selftest(
        level="full",
        seeds=(11,),
        corpus_dir=blessed_corpus,
        jobs=2,
        workdir=tmp_path,
    )
    assert report.passed, report.render()
    # full adds one stress differential per seed plus the streaming
    # chaos-equivalence check on top of quick's battery (which includes
    # one pack differential per corpus pack).
    from repro.scenarios.packs import CORPUS_PACKS

    assert len(report.checks) == 6 + len(CORPUS_PACKS)
    families = {check.family for check in report.checks}
    assert "pack" in families and "stream" in families
