"""Typed repositories: the API's only path to the archive.

Each repository wraps :class:`repro.archive.query.ArchiveQuery` with the
pagination, filtering, and shaping one family of endpoints needs. Routes
never touch SQL or raw rows; repositories never touch HTTP. Most return a
JSON-able dict; the bundle endpoints return their canonical body already
rendered from the archive rows (a :class:`~repro.serve.httpcommon.RawBody`).
Query-string validation is strict — an unknown parameter or a malformed
value raises :class:`ValueError`, which the app maps to a 400 so typos
fail loudly instead of silently returning the unfiltered collection.

The financial summary deliberately reuses the incremental analyzer's
archive-row path (``sandwiches(order_by="landed_at")`` +
``defensive_report`` + :func:`~repro.core.aggregate.headline_stats`): the
conformance oracle already pins that path byte-identical to a serial batch
analysis, so the API inherits the same guarantee for free.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.archive.query import ArchiveQuery, BundleFilter, SandwichFilter
from repro.core.aggregate import headline_stats
from repro.constants import DEFENSIVE_TIP_THRESHOLD_LAMPORTS
from repro.dex.oracle import PriceOracle
from repro.serve.httpcommon import JSON_CONTENT_TYPE, RawBody
from repro.serve.models import (
    PageMeta,
    detection_to_json,
    financials_to_json,
    page_payload,
    render_bundle_page,
    render_bundle_row,
    status_to_json,
)

#: Default page size when the client sends no ``limit``.
DEFAULT_PAGE_LIMIT = 100
#: Hard ceiling on ``limit`` — large scans belong in batch analysis.
MAX_PAGE_LIMIT = 1_000


def _int_param(params: dict[str, str], key: str) -> int | None:
    raw = params.get(key)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{key} must be an integer, got {raw!r}") from exc


def _reject_unknown(params: dict[str, str], known: frozenset[str]) -> None:
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ValueError(
            f"unknown query parameter(s): {', '.join(unknown)}; "
            f"supported: {', '.join(sorted(known))}"
        )


@dataclass(frozen=True)
class PageParams:
    """Validated pagination window."""

    limit: int = DEFAULT_PAGE_LIMIT
    offset: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.limit <= MAX_PAGE_LIMIT:
            raise ValueError(
                f"limit must be in [1, {MAX_PAGE_LIMIT}], got {self.limit}"
            )
        if self.offset < 0:
            raise ValueError(f"offset must be >= 0, got {self.offset}")

    @classmethod
    def from_params(cls, params: dict[str, str]) -> "PageParams":
        """Build from query parameters, applying defaults."""
        limit = _int_param(params, "limit")
        offset = _int_param(params, "offset")
        return cls(
            limit=DEFAULT_PAGE_LIMIT if limit is None else limit,
            offset=0 if offset is None else offset,
        )


PAGE_PARAM_KEYS = frozenset({"limit", "offset", "order_by", "descending"})


def _order_params(
    params: dict[str, str], allowed: frozenset[str]
) -> tuple[str, bool]:
    order_by = params.get("order_by", "seq")
    if order_by not in allowed:
        raise ValueError(
            f"cannot order by {order_by!r}; "
            f"supported: {', '.join(sorted(allowed))}"
        )
    raw = params.get("descending", "false").lower()
    if raw not in {"true", "false", "1", "0"}:
        raise ValueError(f"descending must be true/false, got {raw!r}")
    return order_by, raw in {"true", "1"}


class BundleRepository:
    """Paginated, filtered access to archived bundles."""

    PARAM_KEYS = PAGE_PARAM_KEYS | frozenset(
        {"slot_min", "slot_max", "length", "tip_min", "tip_max",
         "date_from", "date_to"}
    )
    ORDER_COLUMNS = frozenset(
        {"seq", "slot", "landed_at", "tip_lamports", "num_transactions"}
    )

    def __init__(self, query: ArchiveQuery) -> None:
        self._query = query

    def page(self, params: dict[str, str]) -> RawBody:
        """One page of bundles matching the query-string filters."""
        _reject_unknown(params, self.PARAM_KEYS)
        page = PageParams.from_params(params)
        order_by, descending = _order_params(params, self.ORDER_COLUMNS)
        where = BundleFilter(
            slot_min=_int_param(params, "slot_min"),
            slot_max=_int_param(params, "slot_max"),
            length=_int_param(params, "length"),
            tip_min=_int_param(params, "tip_min"),
            tip_max=_int_param(params, "tip_max"),
            date_from=params.get("date_from"),
            date_to=params.get("date_to"),
        )
        rows, total = self._query.bundle_page(
            where=where,
            order_by=order_by,
            descending=descending,
            limit=page.limit,
            offset=page.offset,
        )
        body = render_bundle_page(
            rows,
            PageMeta(
                limit=page.limit,
                offset=page.offset,
                returned=len(rows),
                total=total,
            ),
        )
        return RawBody(body, JSON_CONTENT_TYPE)

    def detail(self, bundle_id: str) -> RawBody | None:
        """One bundle by id, or None for a 404."""
        row = self._query.bundle_row(bundle_id)
        if row is None:
            return None
        return RawBody(
            ('{"bundle":' + render_bundle_row(row) + "}").encode("utf-8"),
            JSON_CONTENT_TYPE,
        )


class DetectionRepository:
    """Paginated, filtered access to archived sandwich detections."""

    PARAM_KEYS = PAGE_PARAM_KEYS | frozenset(
        {"attacker", "victim", "slot_min", "slot_max",
         "date_from", "date_to", "priced_only"}
    )
    ORDER_COLUMNS = frozenset(
        {"seq", "slot", "landed_at", "tip_lamports", "victim_loss_usd"}
    )

    def __init__(self, query: ArchiveQuery) -> None:
        self._query = query

    def page(self, params: dict[str, str]) -> dict:
        """One page of detections matching the query-string filters."""
        _reject_unknown(params, self.PARAM_KEYS)
        page = PageParams.from_params(params)
        order_by, descending = _order_params(params, self.ORDER_COLUMNS)
        raw_priced = params.get("priced_only", "false").lower()
        if raw_priced not in {"true", "false", "1", "0"}:
            raise ValueError(
                f"priced_only must be true/false, got {raw_priced!r}"
            )
        where = SandwichFilter(
            attacker=params.get("attacker"),
            victim=params.get("victim"),
            slot_min=_int_param(params, "slot_min"),
            slot_max=_int_param(params, "slot_max"),
            date_from=params.get("date_from"),
            date_to=params.get("date_to"),
            priced_only=raw_priced in {"true", "1"},
        )
        items = self._query.sandwiches(
            where=where,
            order_by=order_by,
            descending=descending,
            limit=page.limit,
            offset=page.offset,
        )
        total = self._query.count_sandwiches(where)
        return page_payload(
            [detection_to_json(item) for item in items],
            PageMeta(
                limit=page.limit,
                offset=page.offset,
                returned=len(items),
                total=total,
            ),
        )

    def detail(self, bundle_id: str) -> dict | None:
        """The detection for one attacked bundle, or None for a 404."""
        item = self._query.sandwich_for_bundle(bundle_id)
        return None if item is None else {"detection": detection_to_json(item)}


class AggregateRepository:
    """The paper-figure aggregations and the financial summary."""

    TIPS_PARAM_KEYS = frozenset({"bucket_lamports", "length"})
    ATTACKERS_PARAM_KEYS = frozenset({"limit"})

    def __init__(
        self,
        query: ArchiveQuery,
        oracle: PriceOracle | None = None,
    ) -> None:
        self._query = query
        self._oracle = oracle or PriceOracle()

    def financials(self) -> dict:
        """Campaign headline figures, canonically rendered.

        Mirrors :meth:`IncrementalAnalyzer._build_report`: detections in
        ``landed_at`` order, the classified rows in ``bundle_seq`` order —
        the exact summation order the batch report uses.
        """
        quantified = self._query.sandwiches(order_by="landed_at")
        headline = headline_stats(
            quantified,
            self._query.defensive_report(DEFENSIVE_TIP_THRESHOLD_LAMPORTS),
            bundles_collected=self._query.count_bundles(),
            oracle=self._oracle,
        )
        return {"financials": financials_to_json(headline)}

    def daily(self) -> dict:
        """Per-day attack counts and USD sums (the Figure 2 series)."""
        return {"daily": self._query.sandwiches_per_day()}

    def lengths(self) -> dict:
        """Bundle count by length (the Figure 1 marginal)."""
        histogram = self._query.length_histogram()
        return {"lengths": {str(k): v for k, v in histogram.items()}}

    def tips(self, params: dict[str, str]) -> dict:
        """Tip histogram (the Figure 4 series), bucket floor in lamports."""
        _reject_unknown(params, self.TIPS_PARAM_KEYS)
        bucket = _int_param(params, "bucket_lamports")
        if bucket is not None and bucket < 1:
            raise ValueError(f"bucket_lamports must be >= 1, got {bucket}")
        histogram = self._query.tip_histogram(
            bucket_lamports=bucket if bucket is not None else 100_000,
            length=_int_param(params, "length"),
        )
        return {"tips": {str(k): v for k, v in histogram.items()}}

    def attackers(self, params: dict[str, str]) -> dict:
        """Attackers ranked by USD extracted (the actor concentration table)."""
        _reject_unknown(params, self.ATTACKERS_PARAM_KEYS)
        limit = _int_param(params, "limit")
        if limit is not None and not 1 <= limit <= MAX_PAGE_LIMIT:
            raise ValueError(
                f"limit must be in [1, {MAX_PAGE_LIMIT}], got {limit}"
            )
        return {
            "attackers": self._query.top_attackers(
                limit=limit if limit is not None else 10
            )
        }

    def defensive(self) -> dict:
        """Counts and tip totals by defensive/priority classification."""
        return {"defensive": self._query.defensive_summary()}


class StatusRepository:
    """Collection-integrity status for the whole archive."""

    def __init__(self, query: ArchiveQuery) -> None:
        self._query = query

    def status(self) -> dict:
        """Archive row counts, pending-detail backlog, and the watermark.

        ``defensive`` counts the defensive class only, the figure
        ``/v1/financials`` reports as ``defensiveBundles``; the
        watermark's ``d`` field counts every classified row.
        """
        watermark = self._query.watermark()
        classes = self._query.defensive_summary()
        return {
            "status": status_to_json(
                bundles=self._query.count_bundles(),
                transactions=self._query.count_transactions(),
                sandwiches=self._query.count_sandwiches(),
                defensive=classes.get("defensive", {}).get("bundles", 0),
                pending_details=self._query.pending_detail_count(),
                watermark=watermark.token,
            )
        }
