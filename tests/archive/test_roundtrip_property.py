"""Property tests: wire records survive the archive row trip unchanged.

The archive is a durable mirror of wire-level records; any asymmetry in the
row converters silently corrupts a campaign on reload. Hypothesis drives
randomized records through a real SQLite insert-and-select cycle and
demands exact equality — including back out to wire JSON, which is what
``repro archive export-jsonl`` emits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archive.database import ArchiveDatabase
from repro.archive.store import ArchiveBundleStore
from repro.archive.schema import sandwich_with_bundle
from repro.core.events import SandwichEvent
from repro.core.quantify import QuantifiedSandwich
from repro.core.trades import TradeLeg
from repro.explorer.models import BundleRecord, TransactionRecord
from repro.explorer.wire import (
    bundle_record_to_json,
    transaction_record_to_json,
)

ids = st.text(
    alphabet="123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz",
    min_size=1,
    max_size=44,
)
lamports = st.integers(min_value=0, max_value=10**15)
times = st.floats(
    min_value=0, max_value=2e9, allow_nan=False, allow_infinity=False
)

bundle_records = st.builds(
    BundleRecord,
    bundle_id=ids,
    slot=st.integers(min_value=0, max_value=10**9),
    landed_at=times,
    tip_lamports=lamports,
    transaction_ids=st.lists(ids, min_size=1, max_size=5, unique=True).map(
        tuple
    ),
)

transaction_records = st.builds(
    TransactionRecord,
    transaction_id=ids,
    slot=st.integers(min_value=0, max_value=10**9),
    block_time=times,
    signer=ids,
    signers=st.lists(ids, min_size=1, max_size=4).map(tuple),
    fee_lamports=lamports,
    token_deltas=st.dictionaries(
        keys=ids,
        values=st.dictionaries(
            keys=ids,
            values=st.integers(min_value=-(10**15), max_value=10**15),
            max_size=3,
        ),
        max_size=3,
    ),
    lamport_deltas=st.dictionaries(
        keys=ids,
        values=st.integers(min_value=-(10**15), max_value=10**15),
        max_size=3,
    ),
)

trade_legs = st.builds(
    TradeLeg,
    owner=ids,
    pool=ids,
    mint_in=ids,
    mint_out=ids,
    amount_in=st.integers(min_value=1, max_value=10**15),
    amount_out=st.integers(min_value=1, max_value=10**15),
)

quantified_sandwiches = st.builds(
    QuantifiedSandwich,
    event=st.builds(
        SandwichEvent,
        bundle=bundle_records,
        attacker=ids,
        victim=ids,
        frontrun=trade_legs,
        victim_trade=trade_legs,
        backrun=trade_legs,
    ),
    victim_loss_quote=times,
    attacker_gain_quote=times,
    victim_loss_usd=st.one_of(st.none(), times),
    attacker_gain_usd=st.one_of(st.none(), times),
)


def fresh_store() -> ArchiveBundleStore:
    """A store over an in-memory database."""
    return ArchiveBundleStore(ArchiveDatabase(":memory:"))


class TestRowRoundTrips:
    @settings(max_examples=50, deadline=None)
    @given(record=bundle_records)
    def test_bundle_survives_archive_trip(self, record):
        store = fresh_store()
        store.add_bundles([record])
        store.flush()
        reloaded = ArchiveBundleStore.resume(store.database)
        out = reloaded.get_bundle(record.bundle_id)
        assert out == record
        assert bundle_record_to_json(out) == bundle_record_to_json(record)

    @settings(max_examples=50, deadline=None)
    @given(record=transaction_records)
    def test_detail_survives_archive_trip(self, record):
        store = fresh_store()
        store.add_details([record])
        store.flush()
        reloaded = ArchiveBundleStore.resume(store.database)
        out = reloaded.get_detail(record.transaction_id)
        assert out == record
        assert transaction_record_to_json(out) == transaction_record_to_json(
            record
        )

    @settings(max_examples=50, deadline=None)
    @given(item=quantified_sandwiches)
    def test_sandwich_survives_archive_trip(self, item):
        from repro.archive.query import ArchiveQuery

        store = fresh_store()
        store.record_sandwiches([item])
        rebuilt = ArchiveQuery(store.database).sandwiches()[0]
        # The sandwiches table keeps an id-only bundle; joining the bundle
        # back (as export and incremental analysis do) is loss-free.
        assert sandwich_with_bundle(rebuilt, item.event.bundle) == item
        assert rebuilt.event.bundle_id == item.event.bundle_id
        assert rebuilt.victim_loss_usd == item.victim_loss_usd
