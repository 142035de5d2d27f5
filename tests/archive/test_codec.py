"""The archive's positional codec: one exact decoder per record type.

Every bulk read decodes plain column tuples through
``bundle_from_columns`` / ``detail_from_columns`` /
``sandwich_from_columns``, which build the frozen records by filling the
instance ``__dict__`` instead of running the dataclass ``__init__``. These
tests pin that shortcut to the frozen constructor (equal records, equal
hashes, still frozen), pin the single-id slice parse of
``transaction_ids`` to ``json.loads``, and pin every malformed value to a
:class:`StoreError`.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archive.database import ArchiveDatabase
from repro.archive.schema import (
    BUNDLE_COLUMNS,
    DETAIL_COLUMNS,
    SANDWICH_COLUMNS,
    bundle_from_columns,
    detail_from_columns,
    new_bundle,
    parse_transaction_ids,
    sandwich_from_columns,
)
from repro.archive.store import ArchiveBundleStore
from repro.core.events import SandwichEvent
from repro.core.quantify import QuantifiedSandwich
from repro.core.trades import TradeLeg
from repro.errors import StoreError
from repro.explorer.models import BundleRecord, TransactionRecord
from tests.archive.test_roundtrip_property import (
    lamports,
    quantified_sandwiches,
    times,
    transaction_records,
)

#: JSON nested past the interpreter's recursion limit: ``json.loads``
#: raises RecursionError, not a ValueError, for it.
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000

#: Any text SQLite can store (surrogates cannot be UTF-8 encoded).
any_text = st.text(st.characters(blacklist_categories=("Cs",)))

#: Bundles whose ids include quotes, backslashes, control characters,
#: non-ASCII and empty strings.
hostile_bundles = st.builds(
    BundleRecord,
    bundle_id=any_text,
    slot=st.integers(min_value=0, max_value=10**9),
    landed_at=times,
    tip_lamports=lamports,
    transaction_ids=st.lists(any_text, min_size=1, max_size=5).map(tuple),
)


def stored_columns(store, table: str, columns: tuple[str, ...]) -> list:
    """The decoder's columns of every ``table`` row, as plain tuples."""
    return store.database.tuples(
        f"SELECT {', '.join(columns)} FROM {table} ORDER BY seq"
    ).fetchall()


def fresh_store() -> ArchiveBundleStore:
    """A store over an in-memory database."""
    return ArchiveBundleStore(ArchiveDatabase(":memory:"))


def id_only(item: QuantifiedSandwich) -> QuantifiedSandwich:
    """``item`` as the sandwiches table keeps it: an id-only bundle."""
    return dataclasses.replace(
        item,
        event=dataclasses.replace(
            item.event,
            bundle=dataclasses.replace(item.event.bundle, transaction_ids=()),
        ),
    )


def reference_ids(raw):
    """``transaction_ids`` decoded by the JSON module alone (None: reject)."""
    try:
        value = json.loads(raw)
    except (TypeError, ValueError):
        return None
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        return None
    return tuple(value)


class TestDecodersMatchTheFrozenConstructor:
    @settings(max_examples=60, deadline=None)
    @given(record=hostile_bundles)
    def test_bundle(self, record):
        store = fresh_store()
        store.add_bundles([record])
        store.flush()
        (row,) = stored_columns(store, "bundles", BUNDLE_COLUMNS)
        decoded = bundle_from_columns(*row)
        assert type(decoded) is BundleRecord
        assert decoded == record
        assert hash(decoded) == hash(record)
        assert decoded.__dict__ == record.__dict__

    @settings(max_examples=60, deadline=None)
    @given(record=transaction_records)
    def test_detail(self, record):
        store = fresh_store()
        store.add_details([record])
        store.flush()
        (row,) = stored_columns(store, "transactions", DETAIL_COLUMNS)
        decoded = detail_from_columns(*row)
        assert type(decoded) is TransactionRecord
        assert decoded == record
        assert decoded.__dict__ == record.__dict__
        # Dict-valued fields make both unhashable, identically.
        for value in (decoded, record):
            with pytest.raises(TypeError):
                hash(value)

    @settings(max_examples=60, deadline=None)
    @given(item=quantified_sandwiches)
    def test_sandwich(self, item):
        store = fresh_store()
        store.record_sandwiches([item])
        (row,) = stored_columns(store, "sandwiches", SANDWICH_COLUMNS)
        decoded = sandwich_from_columns(*row)
        expected = id_only(item)
        assert decoded == expected
        assert hash(decoded) == hash(expected)
        assert type(decoded.event) is SandwichEvent
        assert type(decoded.event.frontrun) is TradeLeg


class TestDecodedRecordsStayFrozen:
    @settings(max_examples=20, deadline=None)
    @given(record=hostile_bundles)
    def test_bundle(self, record):
        decoded = bundle_from_columns(
            record.bundle_id,
            record.slot,
            record.landed_at,
            record.tip_lamports,
            json.dumps(list(record.transaction_ids)),
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            decoded.slot = record.slot + 1

    @settings(max_examples=20, deadline=None)
    @given(record=transaction_records)
    def test_detail(self, record):
        store = fresh_store()
        store.add_details([record])
        store.flush()
        (row,) = stored_columns(store, "transactions", DETAIL_COLUMNS)
        decoded = detail_from_columns(*row)
        with pytest.raises(dataclasses.FrozenInstanceError):
            decoded.signer = "someone-else"

    @settings(max_examples=20, deadline=None)
    @given(item=quantified_sandwiches)
    def test_sandwich_and_every_nested_record(self, item):
        store = fresh_store()
        store.record_sandwiches([item])
        (row,) = stored_columns(store, "sandwiches", SANDWICH_COLUMNS)
        decoded = sandwich_from_columns(*row)
        for record, field in (
            (decoded, "victim_loss_quote"),
            (decoded.event, "attacker"),
            (decoded.event.bundle, "slot"),
            (decoded.event.frontrun, "amount_in"),
            (decoded.event.victim_trade, "owner"),
            (decoded.event.backrun, "pool"),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field, None)


class TestNewBundle:
    def test_new_bundle_equals_frozen_constructor(self):
        built = new_bundle("b-1", 7, 123.5, 9000, ("t1", "t2"))
        plain = BundleRecord(
            bundle_id="b-1",
            slot=7,
            landed_at=123.5,
            tip_lamports=9000,
            transaction_ids=("t1", "t2"),
        )
        assert built == plain
        assert isinstance(built, BundleRecord)
        assert built.__dict__ == plain.__dict__

    def test_new_bundle_stays_frozen(self):
        built = new_bundle("b-1", 7, 123.5, 9000, ("t1",))
        with pytest.raises(Exception):
            built.slot = 8

    def test_records_keep_fields_in_dict(self):
        """The ``__dict__`` fill needs non-slots dataclasses."""
        for cls in (
            BundleRecord,
            TransactionRecord,
            TradeLeg,
            SandwichEvent,
            QuantifiedSandwich,
        ):
            assert "__slots__" not in vars(cls), cls


class TestParseTransactionIds:
    def test_parse_transaction_ids_fast_path_and_fallback(self):
        assert parse_transaction_ids('["only-one"]') == ("only-one",)
        assert parse_transaction_ids('["a","b"]') == ("a", "b")
        assert parse_transaction_ids("[]") == ()
        # Escapes defeat the slice fast path but not correctness.
        assert parse_transaction_ids('["a\\"b"]') == ('a"b',)

    @settings(max_examples=300, deadline=None)
    @given(ids=st.lists(st.text(), max_size=4), ascii_only=st.booleans())
    def test_any_list_of_strings_round_trips(self, ids, ascii_only):
        raw = json.dumps(ids, ensure_ascii=ascii_only)
        assert parse_transaction_ids(raw) == tuple(json.loads(raw))
        assert parse_transaction_ids(raw) == tuple(ids)

    @settings(max_examples=500, deadline=None)
    @given(inner=st.text())
    def test_one_element_slices_agree_with_json(self, inner):
        """Raw text between ``["`` and ``"]``, control characters too."""
        raw = f'["{inner}"]'
        expected = reference_ids(raw)
        if expected is None:
            with pytest.raises(StoreError):
                parse_transaction_ids(raw)
        else:
            assert parse_transaction_ids(raw) == expected

    @settings(max_examples=300, deadline=None)
    @given(raw=st.text())
    def test_arbitrary_text_agrees_with_json_or_raises(self, raw):
        expected = reference_ids(raw)
        if expected is None:
            with pytest.raises(StoreError):
                parse_transaction_ids(raw)
        else:
            assert parse_transaction_ids(raw) == expected

    @pytest.mark.parametrize(
        "raw",
        [
            '["a\nb"]',  # a raw control character: JSON rejects it
            '["a\tb"]',
            '["a\x00"]',
            '["]',  # prefix and suffix overlap
            '["a"',
            '"abc"',  # not an array
            '{"a": 1}',
            "5",
            "[1]",  # not strings
            '["a", null]',
            "",
            None,  # not text
            7,
            b'["a"]',
        ],
    )
    def test_malformed_input_raises_store_error(self, raw):
        with pytest.raises(StoreError):
            parse_transaction_ids(raw)


class TestMalformedColumnsRaiseStoreError:
    BUNDLE = ("b-1", 7, 123.5, 9000, '["t1"]')
    DETAIL = ("t-1", 7, 123.5, "signer", '["signer"]', 5000, "{}", "{}", "[]")
    LEG = {
        "owner": "o",
        "pool": "p",
        "mint_in": "a",
        "mint_out": "b",
        "amount_in": 1,
        "amount_out": 2,
    }
    LEGS = json.dumps(
        {"frontrun": LEG, "victim_trade": LEG, "backrun": LEG}
    )
    SANDWICH = ("b-1", 7, 123.5, 9000, "atk", "vic", 1.0, 2.0, None, None)

    def test_well_formed_columns_decode(self):
        assert bundle_from_columns(*self.BUNDLE).transaction_ids == ("t1",)
        assert detail_from_columns(*self.DETAIL).signers == ("signer",)
        item = sandwich_from_columns(*self.SANDWICH, self.LEGS)
        assert item.event.backrun.amount_out == 2

    @pytest.mark.parametrize(
        "raw",
        [None, 3, '{"t1": 1}', '["t1",', pytest.param(DEEP_ARRAY, id="deep")],
    )
    def test_bundle(self, raw):
        with pytest.raises(StoreError, match="transaction_ids"):
            bundle_from_columns(*self.BUNDLE[:4], raw)

    @pytest.mark.parametrize(
        "raw, position",
        [
            pytest.param(raw, position, id=f"{name}-{position}")
            for position in (4, 6, 7, 8)
            for name, raw in (
                ("None", None),
                ("3", 3),
                ("{", "{"),
                ("deep", DEEP_ARRAY),
            )
        ]
        + [
            # JSON of the wrong container shape for its column.
            pytest.param(raw, position, id=f"{name}-{position}")
            for position, name, raw in (
                (4, "object", '{"a": 1}'),  # signers: array of strings
                (4, "int-array", "[1]"),
                (6, "array", "[1, 2]"),  # token_deltas: object of objects
                (6, "flat-object", '{"a": 1}'),
                (7, "array", "[1]"),  # lamport_deltas: an object
                (8, "object", '{"a": 1}'),  # events: array of objects
                (8, "int-array", "[1]"),
            )
        ],
    )
    def test_detail(self, position, raw):
        columns = list(self.DETAIL)
        columns[position] = raw
        with pytest.raises(StoreError, match="malformed transactions row"):
            detail_from_columns(*columns)

    @pytest.mark.parametrize(
        "legs",
        [
            None,  # not text
            4,
            "{",  # not JSON
            pytest.param(DEEP_ARRAY, id="deep"),
            "[]",  # wrong shape
            json.dumps({"frontrun": LEG, "victim_trade": LEG}),  # missing leg
            json.dumps(
                {"frontrun": LEG, "victim_trade": LEG, "backrun": [1, 2]}
            ),
            json.dumps(
                {
                    "frontrun": {k: v for k, v in LEG.items() if k != "pool"},
                    "victim_trade": LEG,
                    "backrun": LEG,
                }
            ),
            json.dumps(
                {
                    "frontrun": dict(LEG, amount_in="many"),
                    "victim_trade": LEG,
                    "backrun": LEG,
                }
            ),
        ],
    )
    def test_sandwich(self, legs):
        with pytest.raises(StoreError, match="malformed sandwiches row"):
            sandwich_from_columns(*self.SANDWICH, legs)

    @pytest.mark.parametrize(
        "events, deltas",
        [
            ("{", "{}"),
            ("[]", "{"),
            (DEEP_ARRAY, "{}"),
            ("[]", DEEP_ARRAY),
            ('{"a": 1}', "{}"),
            ("[1]", "{}"),
            ("[]", "[1, 2]"),
            ("[]", '{"a": 1}'),
        ],
        ids=[
            "events",
            "deltas",
            "deep-events",
            "deep-deltas",
            "object-events",
            "int-array-events",
            "array-deltas",
            "flat-object-deltas",
        ],
    )
    def test_columnar_features(self, events, deltas):
        """The columnar engine's decode of the same detail text raises
        the object engine's error."""
        from repro.columnar.blocks import _decode_payload

        with pytest.raises(StoreError, match="malformed transactions row"):
            _decode_payload("signer", events, deltas)
