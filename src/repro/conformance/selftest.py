"""The ``repro selftest`` driver: one command that proves the pipeline.

Three check families, each independently reported:

1. **golden** — every fixture in the corpus re-runs and must reproduce its
   frozen digest;
2. **differential** — for each seed, the full config matrix (serial,
   ``--jobs N`` sharded, incremental, killed-and-resumed, streaming)
   analyzes the same campaign, and the oracle demands byte identity where
   the contract promises it and contract identity everywhere else;
3. **metamorphic** — the invariant battery runs over each seed's campaign;
4. **pack** — every built-in scenario pack's *observed* feed sample runs
   the same differential matrix, so adversarial market structures
   (private channels, builder concentration, adaptive attackers) hold the
   byte-identity contract too;
5. **oracle-sensitivity** — the oracle must *detect* an injected
   divergence (a tampered financial figure); a diff engine that cannot
   fail is not evidence of anything.

``--level quick`` runs the matrix at modest campaign sizes; ``--level
full`` adds larger campaigns, a chaos-preset scenario, and a
streaming-vs-batch equivalence fixture over a storm chaos campaign. Everything is
instrumented through :mod:`repro.obs` (``conformance_checks_total``,
``conformance_check_seconds``), and the structured result serializes for
CI logs.
"""

from __future__ import annotations

import dataclasses
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.conformance import golden as golden_mod
from repro.conformance.metamorphic import run_invariants
from repro.conformance.oracle import (
    cleanup_workdir,
    default_configs,
    diff_reports,
    run_differential,
)
from repro.conformance.scenarios import (
    SyntheticScenario,
    selftest_scenario,
)
from repro.errors import ConfigError, ReproError
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

#: The three fixed seeds CI exercises (matching the chaos suite's).
DEFAULT_SEEDS: tuple[int, ...] = (11, 77, 20250806)

LEVELS = ("quick", "full")

#: Campaign sizes per level for the differential/metamorphic scenarios.
LEVEL_BUNDLES = {"quick": 120, "full": 600}

_CHECK_BUCKETS = (0.05, 0.2, 1.0, 5.0, 20.0, 60.0)


@dataclass
class CheckResult:
    """One named check's outcome."""

    family: str
    name: str
    passed: bool
    seconds: float
    detail: str = ""

    def render(self) -> str:
        """Return this check as one indented status line."""
        status = "ok" if self.passed else "FAIL"
        line = f"  [{status}] {self.family}:{self.name} ({self.seconds:.2f}s)"
        if self.detail:
            line += f"\n         {self.detail}"
        return line


@dataclass
class SelftestReport:
    """Everything one selftest run produced."""

    level: str
    seeds: tuple[int, ...]
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether every check in the battery passed."""
        return all(check.passed for check in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        """The subset of checks that failed, in run order."""
        return [check for check in self.checks if not check.passed]

    def render(self) -> str:
        """Return the full multi-line battery report with a verdict."""
        lines = [
            f"repro selftest --level {self.level} "
            f"(seeds: {', '.join(str(s) for s in self.seeds)})"
        ]
        lines += [check.render() for check in self.checks]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"selftest: {verdict} "
            f"({len(self.checks) - len(self.failures)}/{len(self.checks)} "
            "checks passed)"
        )
        return "\n".join(lines)

    def to_json(self) -> dict:
        """JSON-safe form (for ``--metrics-out`` style archiving)."""
        return {
            "level": self.level,
            "seeds": list(self.seeds),
            "passed": self.passed,
            "checks": [dataclasses.asdict(check) for check in self.checks],
        }


class _Runner:
    """Times checks and feeds tallies into the metrics registry."""

    def __init__(
        self,
        report: SelftestReport,
        metrics: MetricsRegistry,
        emit: Callable[[str], None],
    ) -> None:
        self.report = report
        self.metrics = metrics
        self.emit = emit
        self._checks = metrics.counter(
            "conformance_checks_total",
            "Selftest checks executed, by family and status.",
        )
        self._seconds = metrics.histogram(
            "conformance_check_seconds",
            "Wall-clock seconds per selftest check.",
            buckets=_CHECK_BUCKETS,
        )

    def run(
        self, family: str, name: str, check: Callable[[], tuple[bool, str]]
    ) -> bool:
        started = time.perf_counter()
        try:
            passed, detail = check()
        except ReproError as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        result = CheckResult(
            family=family,
            name=name,
            passed=passed,
            seconds=elapsed,
            detail=detail,
        )
        self.report.checks.append(result)
        self._checks.inc(
            family=family, status="pass" if passed else "fail"
        )
        self._seconds.observe(elapsed, family=family)
        self.emit(result.render())
        return passed


def _golden_check(corpus_dir: Path) -> Callable[[], tuple[bool, str]]:
    def check() -> tuple[bool, str]:
        verdicts = golden_mod.check_corpus(corpus_dir)
        failed = [v for v in verdicts if not v.passed]
        if not failed:
            return True, f"{len(verdicts)} fixture(s) reproduced"
        return False, "; ".join(v.render() for v in failed)

    return check


def _differential_check(
    scenario: SyntheticScenario, workdir: Path, jobs: int
) -> Callable[[], tuple[bool, str]]:
    def check() -> tuple[bool, str]:
        result = run_differential(
            scenario, workdir, configs=default_configs(jobs=jobs)
        )
        detail = result.render()
        return result.identical, detail

    return check


def _metamorphic_check(
    scenario: SyntheticScenario,
) -> Callable[[], tuple[bool, str]]:
    def check() -> tuple[bool, str]:
        verdicts = run_invariants(scenario)
        failed = [v for v in verdicts if not v.passed]
        if not failed:
            return True, "; ".join(v.render() for v in verdicts)
        return False, "; ".join(v.render() for v in failed)

    return check


def _pack_differential_check(
    pack, workdir: Path, jobs: int
) -> Callable[[], tuple[bool, str]]:
    """One scenario pack's observed feed through the full config matrix.

    The pack's biased sample — not its ground truth — is what a real
    measurement would analyze, so that is the working set every execution
    path must agree on byte for byte (where the contract promises it).
    """

    def check() -> tuple[bool, str]:
        from repro.conformance.oracle import run_rows_differential
        from repro.scenarios.generate import build_pack_campaign

        campaign = build_pack_campaign(pack)
        result = run_rows_differential(
            campaign.observed_rows,
            workdir / pack.name,
            configs=default_configs(jobs=jobs),
        )
        detail = result.render()
        return result.identical, detail

    return check


def _oracle_sensitivity_check(
    scenario: SyntheticScenario, workdir: Path
) -> Callable[[], tuple[bool, str]]:
    """The oracle must flag a deliberately corrupted report."""

    def check() -> tuple[bool, str]:
        from repro.conformance.oracle import PipelineConfig, run_config
        from repro.conformance.scenarios import generate_rows

        rows = generate_rows(scenario)
        config = PipelineConfig(name="sensitivity", mode="serial")
        report = run_config(rows, config, workdir)
        if not report.quantified:
            return False, "sensitivity scenario produced no detections"
        tampered = dataclasses.replace(
            report,
            quantified=[
                dataclasses.replace(
                    report.quantified[0],
                    victim_loss_quote=(
                        report.quantified[0].victim_loss_quote + 1.0
                    ),
                ),
                *report.quantified[1:],
            ],
        )
        for mode in ("exact", "contract"):
            verdict = diff_reports(
                report, tampered, "original", "tampered", mode=mode
            )
            if verdict.identical:
                return False, (
                    f"oracle failed to flag a tampered report in "
                    f"{mode} mode"
                )
        return True, "oracle flags injected divergence in both modes"

    return check


def _stream_equivalence_check(seed: int) -> Callable[[], tuple[bool, str]]:
    """Full-level fixture: a streaming chaos campaign must byte-match batch.

    Runs the same fault-injected scenario twice — once collect-then-analyze,
    once through the analyze-while-collecting fold — and demands byte
    identity of the canonical report, proving the online path holds its
    contract even when outages and retries reshape the batches it sees.
    """

    def check() -> tuple[bool, str]:
        from repro.collector.campaign import MeasurementCampaign
        from repro.core.pipeline import AnalysisPipeline
        from repro.faults.plan import preset_plan
        from repro.parallel.merge import report_bytes
        from repro.simulation.scenario import small_scenario
        from repro.stream import StreamingCampaign

        batch_result = MeasurementCampaign(
            small_scenario(seed=seed, days=2), fault_plan=preset_plan("storm")
        ).run()
        batch = AnalysisPipeline().analyze_campaign(batch_result)
        _, streamed = StreamingCampaign(
            small_scenario(seed=seed, days=2),
            fault_plan=preset_plan("storm"),
        ).run()
        if report_bytes(batch) != report_bytes(streamed):
            return False, (
                "streaming chaos campaign diverged from the batch "
                "pipeline over the same scenario"
            )
        return True, (
            f"streaming == batch over storm chaos campaign "
            f"({len(batch_result.store)} bundles)"
        )

    return check


def run_selftest(
    level: str = "quick",
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    corpus_dir: str | Path | None = None,
    jobs: int = 4,
    metrics: MetricsRegistry | None = None,
    emit: Callable[[str], None] | None = None,
    workdir: str | Path | None = None,
) -> SelftestReport:
    """Run the full conformance battery; returns the structured report.

    Raises:
        ConfigError: on an unknown level or an empty golden corpus.
    """
    if level not in LEVELS:
        raise ConfigError(
            f"selftest level must be one of {LEVELS}, got {level!r}"
        )
    if not seeds:
        raise ConfigError("selftest needs at least one seed")
    metrics = metrics if metrics is not None else NULL_REGISTRY
    emit = emit or (lambda line: None)
    corpus = Path(corpus_dir) if corpus_dir else golden_mod.default_corpus_dir()
    report = SelftestReport(level=level, seeds=tuple(seeds))
    runner = _Runner(report, metrics, emit)
    bundles = LEVEL_BUNDLES[level]

    scratch_root = (
        Path(workdir)
        if workdir
        else Path(tempfile.mkdtemp(prefix="repro-selftest-"))
    )
    try:
        with metrics.span("conformance.selftest", level=level):
            runner.run("golden", "corpus", _golden_check(corpus))
            for seed in seeds:
                scenario = selftest_scenario(seed, bundles=bundles)
                runner.run(
                    "differential",
                    f"seed-{seed}",
                    _differential_check(
                        scenario, scratch_root / "differential", jobs
                    ),
                )
                runner.run(
                    "metamorphic", f"seed-{seed}", _metamorphic_check(scenario)
                )
            from repro.scenarios.packs import CORPUS_PACKS

            for pack in CORPUS_PACKS:
                runner.run(
                    "pack",
                    pack.name,
                    _pack_differential_check(
                        pack, scratch_root / "packs", jobs
                    ),
                )
            sensitivity = selftest_scenario(seeds[0], bundles=60)
            runner.run(
                "oracle",
                "sensitivity",
                _oracle_sensitivity_check(
                    sensitivity, scratch_root / "sensitivity"
                ),
            )
            if level == "full":
                for seed in seeds:
                    stress = SyntheticScenario(
                        name=f"full-stress-{seed}",
                        seed=seed,
                        bundles=bundles,
                        attacker_density=0.25,
                        tie_every=2,
                        pending_fraction=0.3,
                        tip_regime="high",
                        description="full-level stress scenario",
                    )
                    runner.run(
                        "differential",
                        f"stress-seed-{seed}",
                        _differential_check(
                            stress, scratch_root / "stress", jobs
                        ),
                    )
                runner.run(
                    "stream",
                    f"chaos-equivalence-seed-{seeds[0]}",
                    _stream_equivalence_check(seeds[0]),
                )
    finally:
        if workdir is None:
            cleanup_workdir(scratch_root)
    return report
