"""The five Sandwiching-MEV criteria of paper Section 3.2.

Each criterion is an independently testable predicate over a
:class:`BundleView` (a length-three bundle plus its collected transaction
details). The detector requires all five; the ablation bench drops them one
at a time to measure each one's contribution to precision.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.trades import (
    TradeLeg,
    _memoized_trades,
    is_tip_only_record,
    net_deltas_for,
    traded_mints,
)
from repro.errors import DetectionError
from repro.explorer.models import BundleRecord, TransactionRecord


@dataclass(frozen=True)
class BundleView:
    """A candidate bundle with its members' detail records.

    Trades are parsed on first use, once per record (see
    :func:`~repro.core.trades._memoized_trades`): criterion 1 reads the
    signers alone, so a view that fails it parses no trade.
    """

    bundle: BundleRecord
    records: tuple[TransactionRecord, ...]

    def __post_init__(self) -> None:
        if len(self.records) != len(self.bundle.transaction_ids):
            raise DetectionError(
                f"bundle {self.bundle.bundle_id[:10]} has "
                f"{len(self.bundle.transaction_ids)} transactions but "
                f"{len(self.records)} detail records"
            )

    @property
    def trades(self) -> tuple[tuple[TradeLeg, ...], ...]:
        """Every member's swap legs, in bundle order."""
        return tuple(_memoized_trades(record) for record in self.records)

    @classmethod
    def build(
        cls, bundle: BundleRecord, records: list[TransactionRecord]
    ) -> "BundleView":
        """Order ``records`` to match the bundle and build the view.

        Raises:
            DetectionError: if any member transaction lacks a detail record.
        """
        by_id = {record.transaction_id: record for record in records}
        ordered = []
        for tx_id in bundle.transaction_ids:
            record = by_id.get(tx_id)
            if record is None:
                raise DetectionError(
                    f"missing detail record for transaction {tx_id[:12]}"
                )
            ordered.append(record)
        return cls(bundle=bundle, records=tuple(ordered))

    def first_trade(self, index: int) -> TradeLeg | None:
        """The first swap leg of transaction ``index`` (None if no swap)."""
        legs = _memoized_trades(self.records[index])
        return legs[0] if legs else None


# --- the five criteria ------------------------------------------------------------


def same_attacker_distinct_victim(view: BundleView) -> bool:
    """Criterion 1: txs 1 and 3 share a signer A; tx 2 is signed by B != A."""
    if len(view.records) != 3:
        return False
    first, second, third = (record.signer for record in view.records)
    return first == third and second != first


def same_mint_set(view: BundleView) -> bool:
    """Criterion 2: the same set of minted coins trades in all three txs."""
    mint_sets = [traded_mints(record) for record in view.records]
    if not all(mint_sets):
        return False
    return mint_sets[0] == mint_sets[1] == mint_sets[2]


def rate_increases_for_victim(view: BundleView) -> bool:
    """Criterion 3: A's first trade moves the exchange rate against B.

    Evaluated by comparing realized rates: A front-runs in the victim's
    direction, so the victim's units-paid-per-unit-received must exceed the
    attacker's on the same pair — the attacker bought cheaper than the
    victim was forced to.
    """
    frontrun = view.first_trade(0)
    victim = view.first_trade(1)
    if frontrun is None or victim is None:
        return False
    if frontrun.mint_in != victim.mint_in or frontrun.mint_out != victim.mint_out:
        return False
    try:
        return victim.rate > frontrun.rate
    except DetectionError:
        return False


def attacker_net_gain(view: BundleView) -> bool:
    """Criterion 4: across the bundle, A nets currency with no payment.

    A's combined token deltas must show a positive position in the quote
    currency (the MEV profit) without paying in any other mint — or, when
    the attacker's back-run sold more than the front-run bought, a net gain
    in the quote currency alone (footnote 7 of the paper).
    """
    if len(view.records) != 3:
        return False
    attacker = view.records[0].signer
    frontrun = view.first_trade(0)
    if frontrun is None:
        return False
    deltas = net_deltas_for(
        [view.records[0], view.records[2]], attacker
    )
    quote_delta = deltas.get(frontrun.mint_in, 0)
    token_delta = deltas.get(frontrun.mint_out, 0)
    if quote_delta > 0:
        return True
    return quote_delta == 0 and token_delta > 0


def not_tip_only_tail(view: BundleView) -> bool:
    """Criterion 5: exclude bundles whose final tx only tips a validator."""
    return not is_tip_only_record(view.records[-1])


@dataclass(frozen=True)
class CriterionResult:
    """The verdict of one criterion on one bundle."""

    name: str
    passed: bool


CRITERIA: tuple[tuple[str, callable], ...] = (
    ("same_attacker_distinct_victim", same_attacker_distinct_victim),
    ("same_mint_set", same_mint_set),
    ("rate_increases_for_victim", rate_increases_for_victim),
    ("attacker_net_gain", attacker_net_gain),
    ("not_tip_only_tail", not_tip_only_tail),
)
"""All five criteria, in the paper's order."""


def evaluate_criteria(
    view: BundleView, skip: frozenset[str] = frozenset()
) -> list[CriterionResult]:
    """Evaluate every (non-skipped) criterion, short-circuiting on failure.

    ``skip`` names criteria to bypass (for ablation studies); skipped
    criteria are reported as passed.
    """
    results: list[CriterionResult] = []
    for name, predicate in CRITERIA:
        if name in skip:
            results.append(CriterionResult(name=name, passed=True))
            continue
        passed = bool(predicate(view))
        results.append(CriterionResult(name=name, passed=passed))
        if not passed:
            break
    return results
