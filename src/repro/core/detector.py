"""The sandwich detector: applies the five criteria to collected bundles."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.collector.store import BundleStore
from repro.constants import DEFENSIVE_TIP_THRESHOLD_LAMPORTS, SOL_USD_RATE
from repro.core.criteria import BundleView, evaluate_criteria
from repro.core.defensive import DefensiveBundlingClassifier
from repro.core.events import SandwichEvent
from repro.dex.oracle import PriceOracle
from repro.errors import ConfigError, DetectionError
from repro.explorer.models import BundleRecord


@dataclass
class DetectionStats:
    """Bookkeeping across one detection pass."""

    bundles_examined: int = 0
    bundles_detected: int = 0
    bundles_skipped_incomplete: int = 0
    rejections_by_criterion: dict[str, int] = field(default_factory=dict)

    def add(self, other: "DetectionStats") -> None:
        """Add another pass's bookkeeping to this one, in place.

        A criterion new to this tally is appended, so adding chunk tallies
        in chunk order keeps the first-appearance order a serial
        detector's dict has.
        """
        self.bundles_examined += other.bundles_examined
        self.bundles_detected += other.bundles_detected
        self.bundles_skipped_incomplete += other.bundles_skipped_incomplete
        rejections = self.rejections_by_criterion
        for criterion, count in other.rejections_by_criterion.items():
            rejections[criterion] = rejections.get(criterion, 0) + count


class SandwichDetector:
    """Detects Sandwiching MEV in length-three bundles (paper Section 3.2).

    ``skip_criteria`` disables named criteria — the ablation study's knob.
    """

    def __init__(self, skip_criteria: frozenset[str] | set[str] = frozenset()) -> None:
        self._skip = frozenset(skip_criteria)
        self.stats = DetectionStats()

    @property
    def skipped_criteria(self) -> frozenset[str]:
        """Criteria this detector bypasses."""
        return self._skip

    def detect_view(self, view: BundleView) -> SandwichEvent | None:
        """Evaluate one bundle view; returns the event if all criteria pass."""
        self.stats.bundles_examined += 1
        results = evaluate_criteria(view, self._skip)
        failed = next((r for r in results if not r.passed), None)
        if failed is not None:
            self.stats.rejections_by_criterion[failed.name] = (
                self.stats.rejections_by_criterion.get(failed.name, 0) + 1
            )
            return None

        frontrun = view.first_trade(0)
        victim_trade = view.first_trade(1)
        backrun = view.first_trade(2)
        if frontrun is None or victim_trade is None or backrun is None:
            # Possible only when criteria that guarantee trades are skipped
            # (ablation); such bundles cannot form an event.
            self.stats.rejections_by_criterion["no_trades"] = (
                self.stats.rejections_by_criterion.get("no_trades", 0) + 1
            )
            return None
        self.stats.bundles_detected += 1
        return SandwichEvent(
            bundle=view.bundle,
            attacker=view.records[0].signer,
            victim=view.records[1].signer,
            frontrun=frontrun,
            victim_trade=victim_trade,
            backrun=backrun,
        )

    def detect_bundle(
        self, bundle: BundleRecord, store: BundleStore
    ) -> SandwichEvent | None:
        """Evaluate one collected bundle, resolving details from the store."""
        records = []
        for tx_id in bundle.transaction_ids:
            record = store.get_detail(tx_id)
            if record is None:
                self.stats.bundles_skipped_incomplete += 1
                return None
            records.append(record)
        try:
            view = BundleView.build(bundle, records)
        except DetectionError:
            self.stats.bundles_skipped_incomplete += 1
            return None
        return self.detect_view(view)

    def detect_all(self, store: BundleStore) -> list[SandwichEvent]:
        """Scan every fully-detailed length-three bundle in the store.

        Only length-three bundles are examined — the paper fetches details
        for no other length, so (as it acknowledges) disguised longer
        sandwiches are missed and the result is a lower bound.
        """
        events: list[SandwichEvent] = []
        for bundle in store.bundles_of_length(3):
            event = self.detect_bundle(bundle, store)
            if event is not None:
                events.append(event)
        events.sort(key=lambda e: e.landed_at)
        return events


class WindowedSandwichDetector(SandwichDetector):
    """Extension of the paper's methodology to longer bundles.

    The paper acknowledges its counts are a lower bound: an attacker can
    disguise a sandwich by padding the bundle to length four or five, and a
    length-three-only methodology never sees it. This detector slides a
    three-transaction window across bundles of the configured lengths and
    applies the same five criteria to each window, quantifying the gap
    rather than asserting it.

    The extra recall has a collection price: details must be fetched for
    every covered length, not just 2.77% of bundles.
    """

    def __init__(
        self,
        lengths: tuple[int, ...] = (3, 4, 5),
        skip_criteria: frozenset[str] | set[str] = frozenset(),
    ) -> None:
        super().__init__(skip_criteria=skip_criteria)
        if any(length < 3 for length in lengths):
            raise DetectionError("windowed detection needs lengths >= 3")
        self._lengths = tuple(sorted(set(lengths)))

    @property
    def lengths(self) -> tuple[int, ...]:
        """Bundle lengths this detector scans."""
        return self._lengths

    def detect_bundle(
        self, bundle: BundleRecord, store: BundleStore
    ) -> SandwichEvent | None:
        """Return the first sandwich window found inside ``bundle``."""
        records = []
        for tx_id in bundle.transaction_ids:
            record = store.get_detail(tx_id)
            if record is None:
                self.stats.bundles_skipped_incomplete += 1
                return None
            records.append(record)
        for start in range(len(records) - 2):
            window_records = records[start : start + 3]
            window_bundle = BundleRecord(
                bundle_id=bundle.bundle_id,
                slot=bundle.slot,
                landed_at=bundle.landed_at,
                tip_lamports=bundle.tip_lamports,
                transaction_ids=tuple(
                    record.transaction_id for record in window_records
                ),
            )
            try:
                view = BundleView.build(window_bundle, window_records)
            except DetectionError:  # pragma: no cover - defensive
                continue
            event = self.detect_view(view)
            if event is not None:
                return event
        return None

    def detect_all(self, store: BundleStore) -> list[SandwichEvent]:
        """Scan every fully-detailed bundle of the configured lengths.

        Bundles are visited in store insertion (collection) order, not
        length-major order, so ties in the final ``landed_at`` sort resolve
        identically whether a store is scanned whole or in sharded chunks —
        the invariant the parallel engine's merge relies on.
        """
        wanted = set(self._lengths)
        events: list[SandwichEvent] = []
        for bundle in store.bundles():
            if bundle.num_transactions not in wanted:
                continue
            event = self.detect_bundle(bundle, store)
            if event is not None:
                events.append(event)
        events.sort(key=lambda e: e.landed_at)
        return events


@dataclass(frozen=True)
class DetectorSpec:
    """A declarative, picklable recipe for the whole analysis stack.

    Every analysis path (the serial pipeline, the chunked engines, the
    incremental analyzer and the stream) builds its detector, classifier
    and oracle from it; worker processes cannot receive live detector
    objects, so the chunked engine ships the spec instead.

    ``kind`` selects the detector class (``"standard"`` scans length-three
    bundles, ``"windowed"`` slides a window over ``lengths``);
    ``usd_per_sol`` is the one SOL/USD rate every report figure is
    priced at.
    """

    kind: str = "standard"
    lengths: tuple[int, ...] = (3, 4, 5)
    skip_criteria: frozenset[str] = frozenset()
    threshold_lamports: int = DEFENSIVE_TIP_THRESHOLD_LAMPORTS
    usd_per_sol: float = SOL_USD_RATE

    def validate(self) -> None:
        """Raise :class:`ConfigError` on nonsensical settings."""
        if self.kind not in {"standard", "windowed"}:
            raise ConfigError(
                f"detector kind must be standard or windowed, "
                f"got {self.kind!r}"
            )

    def canonical(self) -> dict:
        """The JSON-ready settings that decide the analysis rows.

        An archive's incremental watermark is stamped with this form.
        Engine, jobs and chunk size are not settings of the spec: they
        leave the rows byte-identical.
        """
        return {
            "kind": self.kind,
            "lengths": list(self.lengths),
            "skip_criteria": sorted(self.skip_criteria),
            "threshold_lamports": self.threshold_lamports,
            "usd_per_sol": self.usd_per_sol,
        }

    @property
    def detail_lengths(self) -> tuple[int, ...]:
        """Bundle lengths whose details a chunk loader must resolve."""
        if self.kind == "windowed":
            return tuple(sorted(set(self.lengths)))
        return (3,)

    def build_detector(self) -> SandwichDetector:
        """A fresh detector configured per this spec."""
        if self.kind == "windowed":
            return WindowedSandwichDetector(
                lengths=self.lengths, skip_criteria=self.skip_criteria
            )
        return SandwichDetector(skip_criteria=self.skip_criteria)

    def build_classifier(self) -> DefensiveBundlingClassifier:
        """A fresh defensive classifier per this spec."""
        return DefensiveBundlingClassifier(
            threshold_lamports=self.threshold_lamports
        )

    def build_oracle(self) -> PriceOracle:
        """The price oracle at this spec's SOL/USD rate."""
        return PriceOracle(self.usd_per_sol)
