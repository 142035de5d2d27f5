"""Response models for the archive API.

Dataclasses, not a schema framework: each model knows how to render itself
as a JSON-able dict with **canonical** money strings. USD amounts go
through :func:`repro.conformance.canon.fmt_fixed` — the same helper the
batch report's CSV exports use — so an API payload and a ``repro analyze``
run over the same archive render the same figures byte-for-byte (the
differential test pins this).

Precision follows the repository's existing canon: per-event amounts at 6
places, campaign totals at 2 (dollars-and-cents), defensive spend at 4
(the report prints it that way), and dimensionless fractions at 6.

Bundles skip the dict: :func:`render_bundle_page` writes a ``/v1/bundles``
body's canonical bytes straight from its archive rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

from repro.archive.schema import parse_transaction_ids
from repro.conformance.canon import canon_float, canon_jsonable, fmt_fixed
from repro.core.aggregate import HeadlineStats
from repro.core.quantify import QuantifiedSandwich
from repro.errors import StoreError
from repro.utils.serialization import encode_json_canonical

#: Decimal places for per-event quote/USD amounts.
EVENT_PLACES = 6
#: Decimal places for campaign-level USD totals.
TOTAL_PLACES = 2
#: Decimal places for defensive-spend figures.
DEFENSIVE_PLACES = 4
#: Decimal places for dimensionless fractions.
FRACTION_PLACES = 6


def money(value: float | None, places: int) -> str | None:
    """Canonical money rendering; ``None`` stays ``None`` (unpriced)."""
    return None if value is None else fmt_fixed(value, places)


@dataclass(frozen=True)
class PageMeta:
    """Pagination envelope: what slice this page is and how much exists."""

    limit: int
    offset: int
    returned: int
    total: int

    def to_json(self) -> dict[str, int]:
        """The ``page`` object of the list-endpoint envelope."""
        return {
            "limit": self.limit,
            "offset": self.offset,
            "returned": self.returned,
            "total": self.total,
        }


def page_payload(items: list[Any], meta: PageMeta) -> dict[str, Any]:
    """The uniform list-endpoint shape: ``{"items": [...], "page": {...}}``."""
    return {"items": items, "page": meta.to_json()}


def _render_scalar(value: Any) -> str:
    """One stored column value as canonical JSON text.

    SQLite hands back ``int``, ``float``, ``str``, ``bytes`` or ``None``;
    the first three take the conversions the canonical encoder makes (for
    a finite float, ``repr`` of its canonical form), and anything else the
    full canonical path, which refuses ``bytes`` with ``TypeError``.
    """
    kind = type(value)
    if kind is int:
        return str(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is float:
        if not math.isfinite(value):
            raise StoreError(
                f"stored value {value!r} cannot be served as JSON"
            )
        return repr(canon_float(value))
    return encode_json_canonical(canon_jsonable(value))


def render_bundle(
    bundle_id: Any,
    slot: Any,
    landed_at: Any,
    tip_lamports: Any,
    transaction_ids: Sequence[str],
) -> str:
    """A bundle in the explorer's wire shape plus its derived length.

    Canonical JSON text: the keys in sorted order, values converted as
    :func:`~repro.conformance.canon.canonical_json_bytes` converts them,
    and ``numTransactions`` counted from the parsed ``transaction_ids``.
    A value that fails raises in that key order, as the canonical encoder
    would; a NaN or infinite float raises :class:`StoreError`, since a
    stored value JSON cannot carry is the archive's fault.
    """
    return (
        f'{{"bundleId":{_render_scalar(bundle_id)}'
        f',"landedAt":{_render_scalar(landed_at)}'
        f',"numTransactions":{len(transaction_ids)}'
        f',"slot":{_render_scalar(slot)}'
        f',"tipLamports":{_render_scalar(tip_lamports)}'
        f',"transactionIds":['
        f'{",".join(map(encode_basestring_ascii, transaction_ids))}]}}'
    )


def render_bundle_page(rows: Sequence[tuple], meta: PageMeta) -> bytes:
    """The canonical ``/v1/bundles`` body for a page of bundle rows.

    ``rows`` are :data:`~repro.archive.schema.BUNDLE_COLUMNS` tuples.
    Every row's ``transaction_ids`` is parsed before any row is rendered,
    so a malformed one is refused (:class:`StoreError`) ahead of any other
    error on the page, as decoding the whole page first would.
    """
    ids = [parse_transaction_ids(row[4]) for row in rows]
    items = ",".join(
        [
            render_bundle(bundle_id, slot, landed_at, tip, row_ids)
            for (bundle_id, slot, landed_at, tip, _), row_ids in zip(rows, ids)
        ]
    )
    return (
        '{"items":[' + items + '],"page":'
        + encode_json_canonical(meta.to_json()) + "}"
    ).encode("utf-8")


def detection_to_json(item: QuantifiedSandwich) -> dict[str, Any]:
    """One detected sandwich with canonical financial strings.

    USD fields are ``None`` for non-SOL pairs (the paper counts them but
    excludes them from financial totals); quote amounts are always present.
    """
    event = item.event
    return {
        "bundleId": event.bundle_id,
        "slot": event.bundle.slot,
        "landedAt": event.landed_at,
        "tipLamports": event.tip_lamports,
        "attacker": event.attacker,
        "victim": event.victim,
        "involvesSol": event.involves_sol,
        "victimLossQuote": money(item.victim_loss_quote, EVENT_PLACES),
        "attackerGainQuote": money(item.attacker_gain_quote, EVENT_PLACES),
        "victimLossUsd": money(item.victim_loss_usd, EVENT_PLACES),
        "attackerGainUsd": money(item.attacker_gain_usd, EVENT_PLACES),
    }


@dataclass(frozen=True)
class FinancialSummary:
    """The campaign's headline financial figures, canonically rendered.

    Built from the same :class:`~repro.core.aggregate.HeadlineStats` the
    batch pipeline computes, over the same archive-row ordering the
    incremental analyzer uses — so the strings here match a ``repro
    analyze`` run byte-for-byte.
    """

    sandwich_count: int
    non_sol_sandwiches: int
    non_sol_fraction: str
    victim_loss_usd: str
    attacker_gain_usd: str
    median_victim_loss_usd: str | None
    bundles_collected: int
    sandwich_bundle_fraction: str
    defensive_bundles: int
    defensive_fraction_of_length_one: str
    defensive_spend_usd: str
    average_defensive_tip_usd: str

    @classmethod
    def from_headline(cls, headline: HeadlineStats) -> "FinancialSummary":
        return cls(
            sandwich_count=headline.sandwich_count,
            non_sol_sandwiches=headline.non_sol_sandwiches,
            non_sol_fraction=fmt_fixed(
                headline.non_sol_fraction(), FRACTION_PLACES
            ),
            victim_loss_usd=fmt_fixed(
                headline.victim_loss_usd, TOTAL_PLACES
            ),
            attacker_gain_usd=fmt_fixed(
                headline.attacker_gain_usd, TOTAL_PLACES
            ),
            median_victim_loss_usd=money(
                headline.median_victim_loss_usd, TOTAL_PLACES
            ),
            bundles_collected=headline.bundles_collected,
            sandwich_bundle_fraction=fmt_fixed(
                headline.sandwich_bundle_fraction, FRACTION_PLACES
            ),
            defensive_bundles=headline.defensive_bundles,
            defensive_fraction_of_length_one=fmt_fixed(
                headline.defensive_fraction_of_length_one, FRACTION_PLACES
            ),
            defensive_spend_usd=fmt_fixed(
                headline.defensive_spend_usd, DEFENSIVE_PLACES
            ),
            average_defensive_tip_usd=fmt_fixed(
                headline.average_defensive_tip_usd, DEFENSIVE_PLACES
            ),
        )

    def to_json(self) -> dict[str, Any]:
        """The ``/v1/financials`` wire object (camelCase keys)."""
        return {
            "sandwichCount": self.sandwich_count,
            "nonSolSandwiches": self.non_sol_sandwiches,
            "nonSolFraction": self.non_sol_fraction,
            "victimLossUsd": self.victim_loss_usd,
            "attackerGainUsd": self.attacker_gain_usd,
            "medianVictimLossUsd": self.median_victim_loss_usd,
            "bundlesCollected": self.bundles_collected,
            "sandwichBundleFraction": self.sandwich_bundle_fraction,
            "defensiveBundles": self.defensive_bundles,
            "defensiveFractionOfLengthOne": (
                self.defensive_fraction_of_length_one
            ),
            "defensiveSpendUsd": self.defensive_spend_usd,
            "averageDefensiveTipUsd": self.average_defensive_tip_usd,
        }


@dataclass(frozen=True)
class StatusModel:
    """Collection-integrity status: what the archive holds right now."""

    bundles: int
    transactions: int
    sandwiches: int
    defensive: int
    pending_details: int
    watermark: str

    def to_json(self) -> dict[str, Any]:
        """The ``/v1/status`` wire object."""
        return {
            "bundles": self.bundles,
            "transactions": self.transactions,
            "sandwiches": self.sandwiches,
            "defensive": self.defensive,
            "pendingDetails": self.pending_details,
            "watermark": self.watermark,
        }
