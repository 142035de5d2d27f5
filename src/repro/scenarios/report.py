"""Pack evaluation: score the detector against planted ground truth.

Runs the unchanged analysis pipeline twice per pack — once over the full
ground-truth campaign (what the archive holds) and once over the observed
feed sample — plus a windowed-detector pass for the arms-race contrast,
then assembles:

- the canonical observed payload (the byte-pinned golden figure),
- the "Measurement bias" section (recall/precision degradation),
- per-engine sandwich-incidence breakdowns for builder packs,
- the evasion mix for adaptive packs.

The payload is pure data derived from the pack recipe, so golden fixtures
pin the recall-degradation figure exactly: re-running a pack must
reproduce the fixture's digest bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.recall import (
    MeasurementBias,
    RecallStats,
    bias_from_counts,
    compute_recall,
)
from repro.conformance.oracle import comparable_payload
from repro.conformance.scenarios import build_store
from repro.core.detector import DetectorSpec
from repro.core.pipeline import AnalysisPipeline, AnalysisReport
from repro.errors import ConformanceError
from repro.scenarios.generate import PackCampaign, build_pack_campaign
from repro.scenarios.packs import ScenarioPack


def _detected_ids(report: AnalysisReport) -> list[str]:
    """Bundle ids of every detection, in canonical order."""
    return sorted(item.event.bundle_id for item in report.quantified)


@dataclass
class EngineBreakdown:
    """Sandwich incidence on one block engine."""

    engine: str
    bundles: int
    flow_share: float
    attacks: int
    stats: RecallStats

    def to_json(self) -> dict:
        """JSON-safe form (part of the pack payload)."""
        return {
            "engine": self.engine,
            "bundles": self.bundles,
            "flow_share": self.flow_share,
            "attacks": self.attacks,
            "stats": self.stats.to_json(),
        }


@dataclass
class PackEvaluation:
    """Everything one pack evaluation produced."""

    pack: ScenarioPack
    campaign: PackCampaign
    truth_report: AnalysisReport
    observed_report: AnalysisReport
    bias: MeasurementBias
    #: The windowed-detector counterpart (the arms-race contrast).
    windowed_bias: MeasurementBias
    engines: list[EngineBreakdown]

    def payload(self) -> dict:
        """The fixture payload: observed bytes plus bias and breakdowns."""
        return {
            "pack": self.pack.to_json(),
            "observed": comparable_payload(self.observed_report),
            "bias": self.bias.to_json(),
            "windowed_bias": self.windowed_bias.to_json(),
            "engines": [engine.to_json() for engine in self.engines],
            "evasion_mix": self.evasion_mix(),
        }

    def evasion_mix(self) -> dict[str, int]:
        """Planted attacks by evasion shape."""
        mix: dict[str, int] = {}
        for attack in self.campaign.attacks:
            mix[attack.evasion] = mix.get(attack.evasion, 0) + 1
        return dict(sorted(mix.items()))

    def render(self) -> str:
        """The pack report: bias section, engine table, evasion mix."""
        lines = [
            f"Scenario pack: {self.pack.name} ({self.pack.kind})",
            f"  {self.pack.description}",
            "",
            self.bias.render(),
        ]
        windowed = self.windowed_bias.observed.recall
        standard = self.bias.observed.recall
        if windowed is not None and standard is not None:
            lines += [
                "",
                (
                    f"windowed-detector recall:  {windowed:.4f} "
                    f"(vs {standard:.4f} length-three) on the public feed"
                ),
            ]
        if self.engines:
            lines += ["", "Per-engine sandwich incidence", "-" * 29]
            header = (
                f"{'engine':<12} {'bundles':>8} {'share':>7} "
                f"{'attacks':>8} {'detected':>9} {'recall':>7}"
            )
            lines.append(header)
            for engine in self.engines:
                recall = engine.stats.recall
                lines.append(
                    f"{engine.engine:<12} {engine.bundles:>8} "
                    f"{engine.flow_share:>7.3f} {engine.attacks:>8} "
                    f"{engine.stats.detected_true:>9} "
                    f"{'n/a' if recall is None else f'{recall:.3f}':>7}"
                )
        mix = self.evasion_mix()
        if set(mix) != {"none"} and mix:
            rendered = ", ".join(
                f"{evasion}={count}" for evasion, count in mix.items()
            )
            lines += ["", f"evasion mix: {rendered}"]
        return "\n".join(lines)


def _engine_breakdowns(
    campaign: PackCampaign, observed_detected: list[str]
) -> list[EngineBreakdown]:
    """Per-engine incidence from the campaign's engine assignment."""
    if not campaign.engine_by_bundle:
        return []
    total = len(campaign.truth_rows)
    members: dict[str, set[str]] = {}
    for bundle_id, engine in campaign.engine_by_bundle.items():
        members.setdefault(engine, set()).add(bundle_id)
    detected = set(observed_detected)
    out: list[EngineBreakdown] = []
    for engine in campaign.pack.engine_names():
        owned = members.get(engine, set())
        attacks = [
            bundles
            for bundles in campaign.attack_bundle_lists
            if any(bundle_id in owned for bundle_id in bundles)
        ]
        out.append(
            EngineBreakdown(
                engine=engine,
                bundles=len(owned),
                flow_share=len(owned) / total if total else 0.0,
                attacks=len(attacks),
                stats=compute_recall(
                    attacks, [b for b in detected if b in owned]
                ),
            )
        )
    return out


def evaluate_pack(pack: ScenarioPack) -> PackEvaluation:
    """Expand a pack and score detection against its ground truth.

    Raises:
        ConformanceError: when the pack's canonical (non-evading, public)
            attacks are not all detected on the ground-truth campaign — a
            miscalibrated base would silently corrupt every bias figure.
    """
    campaign = build_pack_campaign(pack)
    truth_store = build_store(campaign.truth_rows)
    observed_store = build_store(campaign.observed_rows)
    truth_report = AnalysisPipeline().analyze_store(truth_store)
    observed_report = AnalysisPipeline().analyze_store(observed_store)
    truth_detected = _detected_ids(truth_report)
    observed_detected = _detected_ids(observed_report)

    canonical = [a for a in campaign.attacks if a.evasion == "none"]
    missed = [
        attack.attack_id
        for attack in canonical
        if attack.attack_id not in set(truth_detected)
    ]
    if missed:
        raise ConformanceError(
            f"pack {pack.name} is miscalibrated: canonical attacks "
            f"{missed[:5]} evaded the detector on the ground-truth campaign"
        )

    bias = bias_from_counts(
        pack.name,
        campaign.attack_bundle_lists,
        campaign.hidden_attack_indexes,
        truth_bundles=len(campaign.truth_rows),
        observed_bundles=len(campaign.observed_rows),
        truth_detected=truth_detected,
        observed_detected=observed_detected,
    )
    windowed = AnalysisPipeline(DetectorSpec(kind="windowed"))
    windowed_truth = windowed.analyze_store(truth_store)
    windowed_observed = windowed.analyze_store(observed_store)
    windowed_bias = bias_from_counts(
        pack.name,
        campaign.attack_bundle_lists,
        campaign.hidden_attack_indexes,
        truth_bundles=len(campaign.truth_rows),
        observed_bundles=len(campaign.observed_rows),
        truth_detected=_detected_ids(windowed_truth),
        observed_detected=_detected_ids(windowed_observed),
    )
    return PackEvaluation(
        pack=pack,
        campaign=campaign,
        truth_report=truth_report,
        observed_report=observed_report,
        bias=bias,
        windowed_bias=windowed_bias,
        engines=_engine_breakdowns(campaign, observed_detected),
    )
