"""Simulator fixtures: pin what the simulator produces across commits.

The synthetic golden scenarios start at
:func:`repro.conformance.scenarios.generate_rows`, downstream of the
simulator, so they cannot see a change to it. A simulation recipe starts at
a scenario preset instead (:func:`repro.simulation.small_scenario`,
:func:`repro.simulation.paper_scenario`): it runs the full measurement
campaign — simulation, explorer, collector — and the serial analysis, and
pins four things:

- the canon comparable payload of the report;
- a SHA-256 of every collected bundle and transaction detail in wire JSON,
  sorted by id. Every transaction id is a signature over the message bytes,
  so any change to instruction data, message serialization or signing
  shows here;
- a SHA-256 of the sorted ``(bundle_id, label)`` ground truth;
- readable counts: bundles landed, bundles collected, details, sandwiches.

:mod:`repro.conformance.golden` stores these as ``"kind": "simulation"``
fixtures.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.agents.base import GroundTruth, Label
from repro.archive.checkpoint import scenario_fingerprint
from repro.collector.campaign import MeasurementCampaign
from repro.collector.store import BundleStore
from repro.conformance.canon import canon_jsonable
from repro.conformance.oracle import comparable_payload
from repro.core.pipeline import AnalysisPipeline
from repro.errors import ConfigError
from repro.explorer.wire import bundle_record_to_json, transaction_record_to_json
from repro.simulation.config import ScenarioConfig
from repro.simulation.scenario import paper_scenario, small_scenario

#: The scenario presets a simulation recipe may name.
SIMULATION_PRESETS = {
    "small_scenario": small_scenario,
    "paper_scenario": paper_scenario,
}


@dataclass(frozen=True)
class SimulationRecipe:
    """A scenario preset plus the arguments it is called with."""

    name: str
    preset: str
    args: dict = field(default_factory=dict)

    def config(self) -> ScenarioConfig:
        """The scenario the preset builds from :attr:`args`.

        Raises:
            ConfigError: on an unknown preset or arguments it does not take.
        """
        factory = SIMULATION_PRESETS.get(self.preset)
        if factory is None:
            raise ConfigError(
                f"unknown simulation preset {self.preset!r}; expected one "
                f"of {sorted(SIMULATION_PRESETS)}"
            )
        try:
            return factory(**self.args)
        except TypeError as exc:
            raise ConfigError(
                f"bad arguments for {self.preset}: {exc}"
            ) from exc

    def fingerprint(self) -> str:
        """The checkpoint fingerprint of the full scenario configuration.

        A preset whose defaults change produces a different scenario from
        the same arguments; the fingerprint tells that apart from a change
        to the simulator.
        """
        return scenario_fingerprint(self.config())

    def to_json(self) -> dict:
        """JSON-safe recipe (embedded verbatim in golden fixtures)."""
        return {"name": self.name, "preset": self.preset, "args": dict(self.args)}

    @classmethod
    def from_json(cls, record: dict) -> "SimulationRecipe":
        """Rebuild a recipe from :meth:`to_json` output."""
        try:
            recipe = cls(
                name=str(record["name"]),
                preset=str(record["preset"]),
                args=dict(record["args"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed simulation recipe: {exc}") from exc
        recipe.config()
        return recipe


#: The simulation fixtures of the checked-in golden corpus.
SIMULATION_CORPUS: tuple[SimulationRecipe, ...] = (
    SimulationRecipe("simulation-small", "small_scenario", {"seed": 7}),
    SimulationRecipe(
        "simulation-paper-2d", "paper_scenario", {"seed": 2025, "days": 2}
    ),
)


def _sha256_lines(documents) -> str:
    digest = hashlib.sha256()
    for document in documents:
        digest.update(
            json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
        )
        digest.update(b"\n")
    return digest.hexdigest()


def store_digest(store: BundleStore) -> str:
    """SHA-256 of the collected bundles, then details, in wire JSON.

    Bundles are sorted by bundle id and details by transaction id, so the
    digest does not depend on collection order. Floats keep their exact
    repr.
    """
    bundles = sorted(store.bundles(), key=lambda record: record.bundle_id)
    details = sorted(store.details(), key=lambda record: record.transaction_id)
    return _sha256_lines(
        [bundle_record_to_json(record) for record in bundles]
        + [transaction_record_to_json(record) for record in details]
    )


def truth_digest(truth: GroundTruth) -> str:
    """SHA-256 of the sorted ``(bundle_id, label)`` ground truth."""
    pairs = sorted(
        (bundle_id, label.value)
        for label in Label
        for bundle_id in truth.bundle_ids_with_label(label)
    )
    return _sha256_lines(pairs)


def simulation_payload(recipe: SimulationRecipe) -> dict:
    """Run the recipe's campaign and analysis; return the pinned payload."""
    result = MeasurementCampaign(recipe.config()).run()
    report = AnalysisPipeline().analyze_campaign(result)
    payload = canon_jsonable(comparable_payload(report))
    return {
        "counts": {
            "bundles_landed": result.world.bundles_landed,
            "bundles_collected": len(result.store),
            "details": result.store.detail_count(),
            "sandwiches": payload["totals"]["sandwich_count"],
        },
        "report": payload,
        "store_sha256": store_digest(result.store),
        "truth_sha256": truth_digest(result.world.ground_truth),
    }
