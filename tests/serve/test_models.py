"""Response models: canonical money strings, envelope shapes, and
bundles rendered straight from archive rows."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archive.schema import bundle_from_columns
from repro.conformance.canon import canonical_json_bytes
from repro.core.aggregate import HeadlineStats
from repro.errors import StoreError
from repro.explorer.wire import bundle_record_to_json
from repro.serve.models import (
    PageMeta,
    detection_to_json,
    financials_to_json,
    money,
    page_payload,
    render_bundle,
    render_bundle_page,
    status_to_json,
)
from tests.archive.conftest import make_sandwich


class TestMoney:
    def test_renders_fixed_places(self):
        assert money(1.5, 2) == "1.50"

    def test_none_passes_through(self):
        assert money(None, 2) is None

    def test_negative_zero_normalized(self):
        assert money(-0.0, 6) == "0.000000"
        assert money(-1e-12, 6) == "0.000000"

    def test_integer_renders(self):
        assert money(3, 2) == "3.00"

    @pytest.mark.parametrize(
        "value", ["abc", b"1", float("inf"), -float("inf"), float("nan")]
    )
    def test_unservable_value_is_a_store_error(self, value):
        with pytest.raises(StoreError, match="cannot be served as money"):
            money(value, 6)


class TestPageEnvelope:
    def test_meta_to_json(self):
        meta = PageMeta(limit=10, offset=20, returned=5, total=25)
        assert meta.to_json() == {
            "limit": 10,
            "offset": 20,
            "returned": 5,
            "total": 25,
        }

    def test_payload_shape(self):
        payload = page_payload(
            [1, 2], PageMeta(limit=2, offset=0, returned=2, total=9)
        )
        assert payload["items"] == [1, 2]
        assert payload["page"]["total"] == 9


# --- bundle rendering, pinned to the record-and-dict path --------------------

#: Characters JSON must escape or that an ASCII encoder rewrites.
_AWKWARD = st.text(
    alphabet=st.sampled_from(
        ['"', "\\", "/", "\x00", "\n", "\x1f", "\x7f", "a", " ", "\u00e9",
         "\u2028", "\U0001f600"]
    ),
    max_size=8,
)
_TEXT = st.one_of(st.text(max_size=8), _AWKWARD)
_SQLITE_INT = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e300, -1e300, 1e-300, 5e-324, 1e16, 0.1]),
)
#: Every type SQLite hands back, non-finite floats included.
_STORED = st.one_of(
    _SQLITE_INT,
    st.floats(),
    _FINITE,
    _TEXT,
    st.binary(max_size=4),
    st.none(),
)


@st.composite
def _ids_text(draw) -> str:
    """A well-formed ``transaction_ids`` column, in either separator."""
    ids = draw(st.lists(_TEXT, max_size=4))
    separator = draw(st.sampled_from([", ", ","]))
    ascii_only = draw(st.booleans())
    return (
        "["
        + separator.join(json.dumps(i, ensure_ascii=ascii_only) for i in ids)
        + "]"
    )


_MALFORMED_IDS = st.one_of(
    st.sampled_from(
        ["[1, 2]", '{"a": 1}', "not json", '["a"', '["a", 1]', "", "[null]",
         '"a"', '["a"] x', "[", "[[]]"]
    ),
    _STORED,
)
_CLEAN_ROWS = st.tuples(_TEXT, _SQLITE_INT, _FINITE, _SQLITE_INT, _ids_text())
_ANY_ROWS = st.tuples(
    _STORED, _STORED, _STORED, _STORED, st.one_of(_ids_text(), _MALFORMED_IDS)
)


def _meta(rows: list, data) -> PageMeta:
    return PageMeta(
        limit=data.draw(st.integers(1, 1_000)),
        offset=data.draw(st.integers(0, 10**6)),
        returned=len(rows),
        total=data.draw(st.integers(0, 10**7)),
    )


def _record_path_body(rows: list, meta: PageMeta) -> bytes:
    """The page through records, dicts and the canonical walk."""
    items = []
    for record in [bundle_from_columns(*row) for row in rows]:
        payload = bundle_record_to_json(record)
        payload["numTransactions"] = record.num_transactions
        items.append(payload)
    return canonical_json_bytes(page_payload(items, meta))


def _outcome(render, rows: list, meta: PageMeta) -> bytes | type:
    try:
        return render(rows, meta)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def _expected(rows: list, meta: PageMeta) -> bytes | type:
    """The record path's outcome, its ValueError (a NaN or infinite
    float) read as the ``StoreError`` that rendering from rows raises."""
    outcome = _outcome(_record_path_body, rows, meta)
    return StoreError if outcome is ValueError else outcome


_INF_LANDED = ("b-inf", 1, float("inf"), 1, '["t"]')
_BYTES_ID = (b"x", 1, 1.0, 1, '["t"]')
_BYTES_SLOT = ("b-bytes", b"x", 1.0, 1, '["t"]')
_MALFORMED = ("b-ids", 1, 1.0, 1, "[1, 2]")


class TestRenderBundle:
    def test_keys_sorted_and_length_from_ids(self):
        text = render_bundle("b1", 7, 1_000.5, 10, ("t1-0", "t1-1", "t1-2"))
        assert text == (
            '{"bundleId":"b1","landedAt":1000.5,"numTransactions":3,'
            '"slot":7,"tipLamports":10,'
            '"transactionIds":["t1-0","t1-1","t1-2"]}'
        )

    @pytest.mark.parametrize(
        "value", [float("inf"), -float("inf"), float("nan")]
    )
    def test_non_finite_float_is_a_store_error(self, value):
        with pytest.raises(StoreError, match="cannot be served as JSON"):
            render_bundle("b", 1, value, 1, ())

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(_CLEAN_ROWS, max_size=6), data=st.data())
    def test_clean_pages_match_the_record_path(self, rows, data):
        meta = _meta(rows, data)
        assert render_bundle_page(rows, meta) == _record_path_body(rows, meta)

    @settings(max_examples=400, deadline=None)
    @given(
        rows=st.lists(st.one_of(_CLEAN_ROWS, _ANY_ROWS), max_size=6),
        data=st.data(),
    )
    def test_any_page_matches_the_record_path_or_refuses_alike(
        self, rows, data
    ):
        meta = _meta(rows, data)
        assert _outcome(render_bundle_page, rows, meta) == _expected(
            rows, meta
        )

    @pytest.mark.parametrize(
        ("rows", "refused"),
        [
            # Malformed ids are refused before any value on the page.
            ([_BYTES_SLOT, _MALFORMED], StoreError),
            # Then values in row order...
            ([_INF_LANDED, _BYTES_ID], StoreError),
            ([_BYTES_ID, _INF_LANDED], TypeError),
            # ...and, within a row, in sorted key order.
            ([("b", b"x", float("inf"), 1, '["t"]')], StoreError),
            ([(b"x", 1, float("nan"), 1, '["t"]')], TypeError),
        ],
    )
    def test_refusal_order(self, rows, refused):
        meta = PageMeta(limit=5, offset=0, returned=len(rows), total=9)
        assert _outcome(render_bundle_page, rows, meta) is refused
        assert _expected(rows, meta) is refused


class TestDetectionJson:
    def test_priced_event_renders_usd_strings(self):
        payload = detection_to_json(make_sandwich(5, attacker="atk-x"))
        assert payload["attacker"] == "atk-x"
        assert payload["bundleId"] == "b5"
        assert isinstance(payload["victimLossUsd"], str)
        assert "." in payload["victimLossUsd"]

    def test_unpriced_event_keeps_usd_null(self):
        item = make_sandwich(
            6, victim_loss_usd=None, attacker_gain_usd=None
        )
        payload = detection_to_json(item)
        assert payload["victimLossUsd"] is None
        assert payload["attackerGainUsd"] is None
        # Quote amounts exist regardless of pricing.
        assert isinstance(payload["victimLossQuote"], str)


class TestFinancialSummary:
    def _headline(self) -> HeadlineStats:
        return HeadlineStats(
            sandwich_count=4,
            non_sol_sandwiches=1,
            victim_loss_usd=123.456,
            attacker_gain_usd=100.0,
            median_victim_loss_usd=None,
            bundles_collected=100,
            sandwich_bundle_fraction=0.04,
            defensive_bundles=7,
            defensive_fraction_of_length_one=0.5,
            defensive_spend_usd=1.23456,
            average_defensive_tip_usd=0.1,
        )

    def test_totals_at_two_places(self):
        payload = financials_to_json(self._headline())
        assert payload["victimLossUsd"] == "123.46"
        assert payload["attackerGainUsd"] == "100.00"

    def test_defensive_spend_at_four_places(self):
        payload = financials_to_json(self._headline())
        assert payload["defensiveSpendUsd"] == "1.2346"

    def test_median_none_survives(self):
        payload = financials_to_json(self._headline())
        assert payload["medianVictimLossUsd"] is None
        assert payload["sandwichCount"] == 4

    def test_fractions_at_six_places(self):
        payload = financials_to_json(self._headline())
        assert payload["nonSolFraction"] == "0.250000"
        assert payload["sandwichBundleFraction"] == "0.040000"


class TestStatusModel:
    def test_to_json_keys(self):
        payload = status_to_json(
            bundles=1,
            transactions=2,
            sandwiches=3,
            defensive=4,
            pending_details=5,
            watermark="b1.t2.s3.d4",
        )
        assert payload == {
            "bundles": 1,
            "transactions": 2,
            "sandwiches": 3,
            "defensive": 4,
            "pendingDetails": 5,
            "watermark": "b1.t2.s3.d4",
        }
