"""Golden-master fixtures: frozen expected outputs for known campaigns.

A golden fixture is one JSON file pairing a scenario recipe with the
canonicalized analysis payload it must produce: the detections, financial
figures, detector statistics, and a SHA-256 digest of the canonical bytes.
``check`` re-runs the pipeline and diffs; ``bless`` rewrites the frozen
expectations — an *explicit* action (``repro selftest --bless``), never a
side effect of a failing check.

A fixture's ``kind`` says where its recipe starts: a synthetic scenario
(no ``kind``), a scenario pack (``"pack"``), or a simulator preset
(``"simulation"``, see :mod:`repro.conformance.simulation`), which pins the
simulator's own output as well as the analysis of it.

Fixtures live in ``tests/golden/`` (override with ``--corpus`` or the
``REPRO_GOLDEN_DIR`` environment variable) and are written with canon
rounding (:mod:`repro.conformance.canon`), so they are stable across
platforms and Python patch versions while still pinning every figure to 12
significant digits.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.conformance.canon import canon_jsonable, canonical_json_bytes, digest
from repro.conformance.oracle import comparable_payload, diff_jsonable
from repro.conformance.scenarios import (
    CORPUS_SCENARIOS,
    SyntheticScenario,
    build_store,
    generate_rows,
)
from repro.conformance.simulation import (
    SIMULATION_CORPUS,
    SimulationRecipe,
    simulation_payload,
)
from repro.core.pipeline import AnalysisPipeline
from repro.errors import ConfigError, ConformanceError, StoreError

#: Fixture format version; bump when the payload shape changes.
GOLDEN_FORMAT = 1

#: Environment override for the corpus directory.
GOLDEN_DIR_ENV = "REPRO_GOLDEN_DIR"


def default_corpus_dir() -> Path:
    """``tests/golden`` relative to the repository root (env-overridable)."""
    override = os.environ.get(GOLDEN_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def fixture_path(corpus_dir: str | Path, name: str) -> Path:
    """Return the on-disk path of the named fixture inside a corpus."""
    return Path(corpus_dir) / f"{name}.json"


def expected_payload(scenario: SyntheticScenario) -> dict:
    """Run the serial pipeline over the scenario; return the canon payload."""
    store = build_store(generate_rows(scenario))
    report = AnalysisPipeline().analyze_store(store)
    return canon_jsonable(comparable_payload(report))


def _document(kind: str | None, recipe, payload: dict) -> dict:
    document = {
        "format": GOLDEN_FORMAT,
        "scenario": recipe.to_json(),
        "scenario_fingerprint": recipe.fingerprint(),
        "digest": digest(payload),
        "expected": payload,
    }
    if kind is not None:
        document["kind"] = kind
    return document


def _write(name: str, document: dict, corpus_dir: str | Path) -> Path:
    target = fixture_path(corpus_dir, name)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return target


def build_fixture(scenario: SyntheticScenario) -> dict:
    """The full fixture document for one scenario."""
    return _document(None, scenario, expected_payload(scenario))


def expected_pack_payload(pack) -> dict:
    """Evaluate a scenario pack; return its canon fixture payload.

    The payload pins the observed-feed report *and* the measurement-bias
    figures (recall/precision degradation, per-engine incidence), so a
    pack fixture freezes the recall-degradation number exactly.
    """
    from repro.scenarios.report import evaluate_pack

    return canon_jsonable(evaluate_pack(pack).payload())


def build_pack_fixture(pack) -> dict:
    """The full fixture document for one scenario pack.

    Same shape as a scenario fixture plus ``"kind": "pack"`` — the
    dispatch key :func:`check_fixture` uses — with the pack recipe (base
    scenario embedded) under the ``scenario`` key.
    """
    return _document("pack", pack, expected_pack_payload(pack))


def build_simulation_fixture(recipe: SimulationRecipe) -> dict:
    """The full fixture document for one simulator recipe.

    Same shape as a scenario fixture plus ``"kind": "simulation"``, with
    the preset name and its arguments under the ``scenario`` key and the
    scenario's checkpoint fingerprint under ``scenario_fingerprint``.
    """
    return _document("simulation", recipe, simulation_payload(recipe))


def write_pack_fixture(pack, corpus_dir: str | Path) -> Path:
    """Bless one pack: (re)write its fixture file."""
    return _write(pack.name, build_pack_fixture(pack), corpus_dir)


def write_simulation_fixture(
    recipe: SimulationRecipe, corpus_dir: str | Path
) -> Path:
    """Bless one simulator recipe: (re)write its fixture file."""
    return _write(recipe.name, build_simulation_fixture(recipe), corpus_dir)


def write_fixture(scenario: SyntheticScenario, corpus_dir: str | Path) -> Path:
    """Bless one scenario: (re)write its fixture file."""
    return _write(scenario.name, build_fixture(scenario), corpus_dir)


def load_fixture(path: str | Path) -> dict:
    """Parse and sanity-check one fixture file."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise StoreError(f"cannot read golden fixture {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StoreError(f"golden fixture {path} is not JSON: {exc}") from exc
    for key in ("format", "scenario", "digest", "expected"):
        if key not in document:
            raise StoreError(f"golden fixture {path} lacks {key!r}")
    if document["format"] != GOLDEN_FORMAT:
        raise StoreError(
            f"golden fixture {path} is format v{document['format']}; "
            f"this build reads v{GOLDEN_FORMAT} (re-bless the corpus)"
        )
    return document


@dataclass
class GoldenCheck:
    """The outcome of verifying one fixture against a fresh pipeline run."""

    name: str
    passed: bool
    reason: str = ""
    differences: list = field(default_factory=list)

    def render(self) -> str:
        """Return a one-line human-readable verdict for this fixture."""
        status = "ok" if self.passed else "FAIL"
        suffix = f" — {self.reason}" if self.reason else ""
        return f"golden[{self.name}]: {status}{suffix}"


def _recipe_of(document: dict, path: str | Path):
    """The fixture's recipe, the payload function and the recipe's noun."""
    kind = document.get("kind")
    if kind is None:
        scenario = SyntheticScenario.from_json(document["scenario"])
        return scenario, expected_payload, "scenario"
    if kind == "pack":
        from repro.scenarios.packs import ScenarioPack

        pack = ScenarioPack.from_json(document["scenario"])
        return pack, expected_pack_payload, "pack"
    if kind == "simulation":
        recipe = SimulationRecipe.from_json(document["scenario"])
        return recipe, simulation_payload, "simulation"
    raise StoreError(f"golden fixture {path} has unknown kind {kind!r}")


def check_fixture(path: str | Path) -> GoldenCheck:
    """Re-run the pipeline for one fixture and compare against its freeze.

    Dispatches on the fixture's ``kind``: pack fixtures re-evaluate the
    full pack (observed report plus bias figures), simulation fixtures
    re-run the simulator preset's campaign and analysis, plain fixtures
    re-run the serial pipeline over the scenario.
    """
    document = load_fixture(path)
    recipe, compute, noun = _recipe_of(document, path)
    recorded = document.get("scenario_fingerprint")
    if recorded and recorded != recipe.fingerprint():
        return GoldenCheck(
            name=recipe.name,
            passed=False,
            reason=(
                f"{noun} fingerprint drifted "
                f"({recorded} != {recipe.fingerprint()}); the recipe no "
                "longer matches its frozen vectors"
            ),
        )
    actual = compute(recipe)
    actual_digest = digest(actual)
    if actual_digest == document["digest"]:
        return GoldenCheck(name=recipe.name, passed=True)
    differences = diff_jsonable(document["expected"], actual)
    return GoldenCheck(
        name=recipe.name,
        passed=False,
        reason=(
            f"digest {actual_digest[:12]} != frozen "
            f"{document['digest'][:12]} "
            f"({len(differences)} field difference(s))"
        ),
        differences=differences,
    )


def corpus_fixtures(corpus_dir: str | Path) -> list[Path]:
    """All fixture files in a corpus directory, sorted by name."""
    corpus = Path(corpus_dir)
    if not corpus.is_dir():
        return []
    return sorted(corpus.glob("*.json"))


def check_corpus(corpus_dir: str | Path) -> list[GoldenCheck]:
    """Verify every fixture in the corpus.

    Raises:
        ConfigError: when the corpus has no fixtures at all — an empty
            corpus silently passing would defeat the whole tier.
    """
    fixtures = corpus_fixtures(corpus_dir)
    if not fixtures:
        raise ConfigError(
            f"golden corpus {corpus_dir} has no fixtures; generate them "
            "with: repro selftest --bless"
        )
    return [check_fixture(path) for path in fixtures]


def bless_corpus(
    corpus_dir: str | Path,
    scenarios: tuple[SyntheticScenario, ...] = CORPUS_SCENARIOS,
    packs: tuple | None = None,
    simulations: tuple[SimulationRecipe, ...] = SIMULATION_CORPUS,
) -> list[Path]:
    """(Re)write the full corpus: scenarios, scenario packs, simulations.

    ``packs=None`` blesses the built-in pack corpus
    (:data:`repro.scenarios.packs.CORPUS_PACKS`); pass an explicit (maybe
    empty) tuple to bless a different set. ``simulations`` defaults to the
    simulator recipes of
    :data:`repro.conformance.simulation.SIMULATION_CORPUS`, each a full
    campaign that takes seconds; a caller exercising the selftest
    machinery rather than the simulator may pass ``()``.
    """
    if packs is None:
        from repro.scenarios.packs import CORPUS_PACKS

        packs = CORPUS_PACKS
    written = [write_fixture(scenario, corpus_dir) for scenario in scenarios]
    written += [write_pack_fixture(pack, corpus_dir) for pack in packs]
    written += [
        write_simulation_fixture(recipe, corpus_dir) for recipe in simulations
    ]
    return written


def verify_fixture_bytes(path: str | Path) -> None:
    """Assert a fixture's digest matches its own embedded payload.

    A cheap self-consistency check (no pipeline run): catches a fixture
    edited by hand without re-blessing.
    """
    document = load_fixture(path)
    embedded = digest(document["expected"])
    if embedded != document["digest"]:
        raise ConformanceError(
            f"golden fixture {path} is self-inconsistent: embedded payload "
            f"hashes to {embedded[:12]}, digest field says "
            f"{document['digest'][:12]} — was it hand-edited? "
            "Re-bless with: repro selftest --bless"
        )
    canonical_json_bytes(document["expected"])  # must stay canon-clean
