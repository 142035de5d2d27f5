"""Response models for the archive API.

Functions, not a schema framework: each one renders one wire object as a
JSON-able dict with **canonical** money strings. Every amount goes through
:func:`money`, which checks it and then formats it with
:func:`repro.conformance.canon.fmt_fixed` — the same helper the batch
report's CSV exports use — so an API payload and a ``repro analyze`` run
over the same archive render the same figures byte-for-byte (the
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
    """Canonical money rendering; ``None`` stays ``None`` (unpriced).

    Every amount and fraction string the API writes comes from here. Any
    value but a finite ``int`` or ``float`` raises :class:`StoreError`:
    a stored amount the API cannot render is the archive's fault, which
    the server answers with a 500.
    """
    if value is None:
        return None
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise StoreError(f"stored value {value!r} cannot be served as money")
    return fmt_fixed(value, places)


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


def financials_to_json(headline: HeadlineStats) -> dict[str, Any]:
    """The ``/v1/financials`` wire object (camelCase keys).

    Built from the same :class:`~repro.core.aggregate.HeadlineStats` the
    batch pipeline computes, over the same archive-row ordering the
    incremental analyzer uses — so the strings here match a ``repro
    analyze`` run byte-for-byte.
    """
    return {
        "sandwichCount": headline.sandwich_count,
        "nonSolSandwiches": headline.non_sol_sandwiches,
        "nonSolFraction": money(
            headline.non_sol_fraction(), FRACTION_PLACES
        ),
        "victimLossUsd": money(headline.victim_loss_usd, TOTAL_PLACES),
        "attackerGainUsd": money(headline.attacker_gain_usd, TOTAL_PLACES),
        "medianVictimLossUsd": money(
            headline.median_victim_loss_usd, TOTAL_PLACES
        ),
        "bundlesCollected": headline.bundles_collected,
        "sandwichBundleFraction": money(
            headline.sandwich_bundle_fraction, FRACTION_PLACES
        ),
        "defensiveBundles": headline.defensive_bundles,
        "defensiveFractionOfLengthOne": money(
            headline.defensive_fraction_of_length_one, FRACTION_PLACES
        ),
        "defensiveSpendUsd": money(
            headline.defensive_spend_usd, DEFENSIVE_PLACES
        ),
        "averageDefensiveTipUsd": money(
            headline.average_defensive_tip_usd, DEFENSIVE_PLACES
        ),
    }


def status_to_json(
    *,
    bundles: int,
    transactions: int,
    sandwiches: int,
    defensive: int,
    pending_details: int,
    watermark: str,
) -> dict[str, Any]:
    """The ``/v1/status`` wire object: what the archive holds right now."""
    return {
        "bundles": bundles,
        "transactions": transactions,
        "sandwiches": sandwiches,
        "defensive": defensive,
        "pendingDetails": pending_details,
        "watermark": watermark,
    }
