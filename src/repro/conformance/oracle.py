"""The differential oracle: run pipeline configurations, diff the results.

Two layers of comparison, by design:

- **exact** — the canonical report bytes of
  :func:`repro.parallel.merge.report_bytes` must match. This is the
  strictest check and holds between any two configurations that analyze
  the *same working set in the same order* (serial vs ``--jobs N``).
- **contract** — the *determinism contract* payload must match: the set of
  detections with their financial figures, the financial totals recomputed
  in one canonical order, detector statistics, and the defensive
  classification. This is what the incremental analyzer and a
  killed-and-resumed run guarantee: they rebuild quantified sandwiches
  from archive rows (which drop member transaction ids and re-sum floats
  in SQL order), so their full reports are semantically — not
  byte-for-byte — identical to a monolithic pass.

Both layers reduce to a structural diff over JSON-able trees, so every
failure names the exact paths that diverged; the diff rides on
:class:`~repro.errors.ConformanceError` for programmatic consumption.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.archive.database import ArchiveDatabase
from repro.archive.incremental import IncrementalAnalyzer
from repro.archive.store import ArchiveBundleStore
from repro.conformance.scenarios import (
    Row,
    SyntheticScenario,
    generate_rows,
    write_archive,
)
from repro.core.pipeline import AnalysisPipeline, AnalysisReport
from repro.errors import ConfigError, ConformanceError
from repro.parallel.chunks import DEFAULT_CHUNK_SIZE
from repro.parallel.engine import ParallelAnalysisEngine
from repro.parallel.merge import report_bytes, report_to_jsonable
from repro.stream.pipeline import analyze_archive_stream

#: Diff entries rendered before truncating (full list stays on the object).
RENDER_LIMIT = 12


@dataclass(frozen=True)
class FieldDiff:
    """One structural divergence between two JSON-able trees."""

    path: str
    left: Any
    right: Any

    def render(self) -> str:
        """Return the divergence as a one-line ``path: left != right``."""
        return f"{self.path}: {self.left!r} != {self.right!r}"


@dataclass
class ReportDiff:
    """The oracle's verdict on one pair of reports."""

    label_left: str
    label_right: str
    mode: str
    differences: list[FieldDiff] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        """Whether the two reports satisfied the comparison mode."""
        return not self.differences

    def render(self, limit: int = RENDER_LIMIT) -> str:
        """Human-readable summary, truncated to ``limit`` entries."""
        if self.identical:
            return (
                f"{self.label_left} == {self.label_right} ({self.mode}): "
                "identical"
            )
        lines = [
            f"{self.label_left} != {self.label_right} ({self.mode}): "
            f"{len(self.differences)} difference(s)"
        ]
        lines += [f"  {d.render()}" for d in self.differences[:limit]]
        if len(self.differences) > limit:
            lines.append(f"  ... and {len(self.differences) - limit} more")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """JSON-safe form (for logs and archived selftest reports)."""
        return {
            "left": self.label_left,
            "right": self.label_right,
            "mode": self.mode,
            "identical": self.identical,
            "differences": [
                {"path": d.path, "left": d.left, "right": d.right}
                for d in self.differences
            ],
        }


def diff_jsonable(left: Any, right: Any, path: str = "$") -> list[FieldDiff]:
    """Recursive structural diff of two JSON-able trees.

    Scalar mismatches, missing keys, and length mismatches each produce one
    entry naming the JSONPath-ish location. Floats are compared exactly —
    the oracle's whole point is that these runs must agree to the last bit.
    """
    if isinstance(left, dict) and isinstance(right, dict):
        diffs: list[FieldDiff] = []
        for key in sorted(set(left) | set(right), key=str):
            sub = f"{path}.{key}"
            if key not in left:
                diffs.append(FieldDiff(sub, "<absent>", right[key]))
            elif key not in right:
                diffs.append(FieldDiff(sub, left[key], "<absent>"))
            else:
                diffs.extend(diff_jsonable(left[key], right[key], sub))
        return diffs
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        diffs = []
        if len(left) != len(right):
            diffs.append(
                FieldDiff(f"{path}.length", len(left), len(right))
            )
        for position, (a, b) in enumerate(zip(left, right)):
            diffs.extend(diff_jsonable(a, b, f"{path}[{position}]"))
        return diffs
    if left != right or type(left) is not type(right):
        return [FieldDiff(path, left, right)]
    return []


# --- the determinism-contract payload ----------------------------------------------


def _detection_record(item) -> dict:
    """One detection, stripped to fields every execution path preserves.

    Member transaction ids are deliberately excluded: the archive's
    ``sandwiches`` table does not store them, so an incremental rebuild
    carries an id-only bundle. Everything else round-trips losslessly.
    """
    event = item.event

    def leg(trade) -> dict:
        return {
            "owner": trade.owner,
            "pool": trade.pool,
            "mint_in": trade.mint_in,
            "mint_out": trade.mint_out,
            "amount_in": trade.amount_in,
            "amount_out": trade.amount_out,
        }

    # Financials are coerced to float: the live quantifier can hand back an
    # int (attacker gain is a difference of integer amounts) that an archive
    # rebuild returns as REAL. Same value, different type — coercing here
    # keeps the contract about *values*, with float identity still exact.
    return {
        "bundle_id": event.bundle_id,
        "slot": event.bundle.slot,
        "landed_at": event.landed_at,
        "tip_lamports": event.tip_lamports,
        "attacker": event.attacker,
        "victim": event.victim,
        "quote_mint": event.quote_mint,
        "involves_sol": event.involves_sol,
        "victim_loss_quote": float(item.victim_loss_quote),
        "attacker_gain_quote": float(item.attacker_gain_quote),
        "victim_loss_usd": (
            None
            if item.victim_loss_usd is None
            else float(item.victim_loss_usd)
        ),
        "attacker_gain_usd": (
            None
            if item.attacker_gain_usd is None
            else float(item.attacker_gain_usd)
        ),
        "frontrun": leg(event.frontrun),
        "victim_trade": leg(event.victim_trade),
        "backrun": leg(event.backrun),
    }


def comparable_payload(report: AnalysisReport) -> dict:
    """The determinism contract: what every execution path must agree on.

    Detections are sorted by ``(landed_at, bundle_id)`` — a total order
    every path can reproduce regardless of how its backing store broke
    ``landed_at`` ties — and the financial totals are *recomputed* by
    summing in that sorted order, so float-addition order cannot manufacture
    a spurious divergence (or mask a real one behind "close enough").
    """
    ordered = sorted(
        report.quantified,
        key=lambda item: (item.event.landed_at, item.event.bundle_id),
    )
    loss_usd = 0.0
    gain_usd = 0.0
    loss_quote = 0.0
    unpriced = 0
    for item in ordered:
        loss_quote += item.victim_loss_quote
        if item.victim_loss_usd is None:
            unpriced += 1
        else:
            loss_usd += item.victim_loss_usd
        if item.attacker_gain_usd is not None:
            gain_usd += item.attacker_gain_usd
    defensive = report.defensive
    return {
        "detections": [_detection_record(item) for item in ordered],
        "totals": {
            "sandwich_count": len(ordered),
            "unpriced_sandwiches": unpriced,
            "victim_loss_quote": loss_quote,
            "victim_loss_usd": loss_usd,
            "attacker_gain_usd": gain_usd,
        },
        "detection_stats": {
            "bundles_examined": report.detection_stats.bundles_examined,
            "bundles_detected": report.detection_stats.bundles_detected,
            "bundles_skipped_incomplete": (
                report.detection_stats.bundles_skipped_incomplete
            ),
            "rejections_by_criterion": dict(
                sorted(
                    report.detection_stats.rejections_by_criterion.items()
                )
            ),
        },
        "defensive": {
            "threshold_lamports": defensive.threshold_lamports,
            "defensive_ids": list(defensive.defensive_ids),
            "priority_ids": list(defensive.priority_ids),
            # Integer lamports: immune to summation-order effects.
            "defensive_tips_lamports": defensive.defensive_tips_lamports,
        },
        "bundles_collected": report.headline.bundles_collected,
    }


def diff_reports(
    left: AnalysisReport,
    right: AnalysisReport,
    label_left: str = "left",
    label_right: str = "right",
    mode: str = "contract",
) -> ReportDiff:
    """Compare two reports under ``mode`` (``"exact"`` or ``"contract"``)."""
    if mode == "exact":
        if report_bytes(left) == report_bytes(right):
            return ReportDiff(label_left, label_right, mode)
        differences = diff_jsonable(
            report_to_jsonable(left), report_to_jsonable(right)
        )
        # Byte inequality with no structural diff means key-order or float
        # repr trickery somewhere; surface it rather than claim identity.
        if not differences:
            differences = [
                FieldDiff("$", "<bytes differ>", "<bytes differ>")
            ]
        return ReportDiff(label_left, label_right, mode, differences)
    if mode == "contract":
        return ReportDiff(
            label_left,
            label_right,
            mode,
            diff_jsonable(
                comparable_payload(left), comparable_payload(right)
            ),
        )
    raise ConfigError(f"diff mode must be exact or contract, got {mode!r}")


def ensure_reports_identical(
    expected: AnalysisReport,
    actual: AnalysisReport,
    label_expected: str = "expected",
    label_actual: str = "actual",
    mode: str = "exact",
) -> None:
    """Raise :class:`ConformanceError` (with the diff attached) on mismatch.

    The typed replacement for bare ``assert report_bytes(a) == report_bytes
    (b)`` parity checks: failures carry the structured diff instead of a
    useless kilobyte-long bytes repr.
    """
    verdict = diff_reports(
        expected, actual, label_expected, label_actual, mode=mode
    )
    if not verdict.identical:
        raise ConformanceError(verdict.render(), diff=verdict)


# --- pipeline configurations --------------------------------------------------------

CONFIG_MODES = (
    "serial",
    "parallel",
    "incremental",
    "resume",
    "stream",
    "columnar",
)


@dataclass(frozen=True)
class PipelineConfig:
    """One way of executing the analysis over a campaign.

    ``resume`` models a campaign killed mid-collection and resumed: the
    rows are split at ``kill_fraction`` and fed to the incremental analyzer
    in two passes over the same archive, exactly the working pattern of
    ``CheckpointedCampaign`` + ``--incremental`` re-analysis.
    """

    name: str
    mode: str = "serial"
    jobs: int = 1
    chunk_size: int = DEFAULT_CHUNK_SIZE
    kill_fraction: float = 0.5

    def validate(self) -> None:
        """Raise :class:`ConfigError` on out-of-range parameters."""
        if self.mode not in CONFIG_MODES:
            raise ConfigError(
                f"pipeline mode must be one of {CONFIG_MODES}, "
                f"got {self.mode!r}"
            )
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.chunk_size < 1:
            raise ConfigError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if not 0.0 <= self.kill_fraction <= 1.0:
            raise ConfigError("kill_fraction must be in [0, 1]")

    @property
    def exact_comparable(self) -> bool:
        """Whether this config's report is byte-comparable to serial."""
        return self.mode in ("serial", "parallel", "stream", "columnar")


def default_configs(jobs: int = 4) -> tuple[PipelineConfig, ...]:
    """The acceptance matrix: serial, sharded, incremental, resume, stream.

    When numpy is importable the matrix grows a ``columnar`` column — the
    vectorized engine, held to byte identity with serial like every other
    same-working-set configuration.
    """
    from repro.columnar import columnar_available

    configs = [
        PipelineConfig(name="serial", mode="serial"),
        PipelineConfig(
            name=f"parallel-j{jobs}",
            mode="parallel",
            jobs=jobs,
            chunk_size=32,
        ),
        PipelineConfig(name="incremental", mode="incremental"),
        PipelineConfig(name="resume-sigkill", mode="resume"),
        PipelineConfig(name="stream", mode="stream", chunk_size=32),
    ]
    if columnar_available():
        configs.append(
            PipelineConfig(name="columnar", mode="columnar", chunk_size=32)
        )
    return tuple(configs)


def run_config(
    rows: Sequence[Row], config: PipelineConfig, workdir: str | Path
) -> AnalysisReport:
    """Execute one configuration over its own private archive copy.

    Every config gets a freshly materialized archive (identical rows,
    identical insertion order), so runs can never contaminate each other
    through persisted detections or watermarks.
    """
    config.validate()
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{config.name}.db"
    if path.exists():
        path.unlink()
    rows = list(rows)
    if config.mode == "serial":
        write_archive(rows, path)
        store = ArchiveBundleStore.resume(path)
        report = AnalysisPipeline().analyze_store(store)
        store.database.close()
        return report
    if config.mode == "parallel":
        write_archive(rows, path)
        engine = ParallelAnalysisEngine(
            path, jobs=config.jobs, chunk_size=config.chunk_size
        )
        report = engine.analyze(persist=False)
        engine.database.close()
        return report
    if config.mode == "columnar":
        write_archive(rows, path)
        engine = ParallelAnalysisEngine(
            path,
            jobs=config.jobs,
            chunk_size=config.chunk_size,
            engine="columnar",
        )
        report = engine.analyze(persist=False)
        engine.database.close()
        return report
    if config.mode == "stream":
        # Attach-mode streaming: replay the archive through the online
        # fold in chunk-sized batches, so candidates register in one
        # batch and complete in a later one.
        write_archive(rows, path)
        return analyze_archive_stream(path, batch_bundles=config.chunk_size)
    if config.mode == "incremental":
        write_archive(rows, path)
        analyzer = IncrementalAnalyzer(
            ArchiveDatabase(path),
            jobs=config.jobs,
            chunk_size=config.chunk_size,
        )
        report = analyzer.analyze().report
        analyzer.database.close()
        return report
    # resume: two collection phases split at the kill point, one
    # incremental pass after each — the killed-and-resumed shape.
    kill_at = int(len(rows) * config.kill_fraction)
    analyzer = IncrementalAnalyzer(
        ArchiveDatabase(path),
        jobs=config.jobs,
        chunk_size=config.chunk_size,
    )
    report = None
    for phase in (rows[:kill_at], rows[kill_at:]):
        store = ArchiveBundleStore(analyzer.database)
        store.add_bundles([bundle for bundle, _ in phase])
        store.add_details(
            [record for _, records in phase for record in records]
        )
        store.flush()
        report = analyzer.analyze().report
    analyzer.database.close()
    return report


@dataclass
class DifferentialResult:
    """A full differential run: every config's report, diffed to baseline."""

    scenario: SyntheticScenario | None
    baseline: str
    reports: dict[str, AnalysisReport]
    diffs: list[ReportDiff]

    @property
    def identical(self) -> bool:
        """Whether every configuration matched the baseline."""
        return all(diff.identical for diff in self.diffs)

    def render(self) -> str:
        """One line per comparison (the CI-log demonstration artifact)."""
        return "\n".join(diff.render() for diff in self.diffs)

    def raise_on_divergence(self) -> None:
        """Raise :class:`ConformanceError` carrying the first failing diff."""
        for diff in self.diffs:
            if not diff.identical:
                raise ConformanceError(diff.render(), diff=diff)


def run_differential(
    scenario: SyntheticScenario,
    workdir: str | Path,
    configs: Sequence[PipelineConfig] | None = None,
) -> DifferentialResult:
    """Run every config over one scenario and diff against the first.

    Exact-comparable configs (serial vs parallel) are held to byte
    identity; archive-rebuilding configs (incremental, resume) to the
    determinism contract. The baseline is ``configs[0]`` (serial in the
    default matrix).
    """
    return run_rows_differential(
        generate_rows(scenario),
        Path(workdir) / scenario.name,
        configs,
        scenario=scenario,
    )


def run_rows_differential(
    rows: Sequence[Row],
    workdir: str | Path,
    configs: Sequence[PipelineConfig] | None = None,
    scenario: SyntheticScenario | None = None,
) -> DifferentialResult:
    """Run the config matrix over pre-materialized rows.

    The rows-level entry point: scenario packs hand their *observed* feed
    sample here (rows no :class:`SyntheticScenario` alone can describe),
    and plain scenarios delegate via :func:`run_differential`. Identity
    rules are identical — byte identity between exact-comparable configs,
    contract identity elsewhere.
    """
    configs = list(configs) if configs is not None else list(default_configs())
    if not configs:
        raise ConfigError("differential run needs at least one config")
    rows = list(rows)
    workdir = Path(workdir)
    reports: dict[str, AnalysisReport] = {}
    for config in configs:
        reports[config.name] = run_config(rows, config, workdir)
    baseline = configs[0]
    diffs = []
    for config in configs[1:]:
        mode = (
            "exact"
            if baseline.exact_comparable and config.exact_comparable
            else "contract"
        )
        diffs.append(
            diff_reports(
                reports[baseline.name],
                reports[config.name],
                baseline.name,
                config.name,
                mode=mode,
            )
        )
    return DifferentialResult(
        scenario=scenario,
        baseline=baseline.name,
        reports=reports,
        diffs=diffs,
    )


def cleanup_workdir(workdir: str | Path) -> None:
    """Remove a differential run's scratch archives (best effort)."""
    shutil.rmtree(workdir, ignore_errors=True)
