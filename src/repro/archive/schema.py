"""The archive's versioned SQLite schema and its record codec.

The archive is the durable, indexed form of everything one measurement
campaign collects and derives: bundle listings, transaction details,
sandwich detections, defensive classifications, campaign checkpoints,
incremental-analysis watermarks, and the count of whole-archive analysis
replacements. The layout follows the shape of real sandwich-measurement
stores (an indexed relational schema per entity, with secondary indexes
on the columns analysts filter by) while staying on the standard
library's :mod:`sqlite3`.

Migrations are append-only: each entry in :data:`MIGRATIONS` upgrades the
database by exactly one version, and ``PRAGMA user_version`` records which
version a file is at, so an archive written by an older build opens cleanly
under a newer one.
"""

from __future__ import annotations

from repro.core.events import SandwichEvent
from repro.core.quantify import QuantifiedSandwich
from repro.core.trades import TradeLeg
from repro.errors import StoreError
from repro.explorer.models import BundleRecord, TransactionRecord
from repro.utils.serialization import (
    decode_json,
    encode_json,
    encode_json_sorted,
)
from repro.utils.simtime import unix_to_date

#: Current schema version (``PRAGMA user_version`` of an up-to-date file).
SCHEMA_VERSION = 3

_V1_DDL = """
CREATE TABLE IF NOT EXISTS bundles (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    bundle_id TEXT NOT NULL UNIQUE,
    slot INTEGER NOT NULL,
    landed_at REAL NOT NULL,
    landed_date TEXT NOT NULL,
    tip_lamports INTEGER NOT NULL,
    num_transactions INTEGER NOT NULL,
    transaction_ids TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_bundles_slot ON bundles(slot);
CREATE INDEX IF NOT EXISTS idx_bundles_length ON bundles(num_transactions);
CREATE INDEX IF NOT EXISTS idx_bundles_tip ON bundles(tip_lamports);
CREATE INDEX IF NOT EXISTS idx_bundles_date ON bundles(landed_date);

CREATE TABLE IF NOT EXISTS bundle_transactions (
    transaction_id TEXT PRIMARY KEY,
    bundle_id TEXT NOT NULL,
    position INTEGER NOT NULL
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_bundle_txs_bundle
    ON bundle_transactions(bundle_id);

CREATE TABLE IF NOT EXISTS transactions (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    transaction_id TEXT NOT NULL UNIQUE,
    slot INTEGER NOT NULL,
    block_time REAL NOT NULL,
    signer TEXT NOT NULL,
    signers TEXT NOT NULL,
    fee_lamports INTEGER NOT NULL,
    token_deltas TEXT NOT NULL,
    lamport_deltas TEXT NOT NULL,
    events TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_transactions_slot ON transactions(slot);
CREATE INDEX IF NOT EXISTS idx_transactions_signer ON transactions(signer);

CREATE TABLE IF NOT EXISTS sandwiches (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    bundle_id TEXT NOT NULL UNIQUE,
    slot INTEGER NOT NULL,
    landed_at REAL NOT NULL,
    landed_date TEXT NOT NULL,
    tip_lamports INTEGER NOT NULL,
    attacker TEXT NOT NULL,
    victim TEXT NOT NULL,
    quote_mint TEXT NOT NULL,
    involves_sol INTEGER NOT NULL,
    victim_loss_quote REAL NOT NULL,
    attacker_gain_quote REAL NOT NULL,
    victim_loss_usd REAL,
    attacker_gain_usd REAL,
    legs TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_sandwiches_attacker ON sandwiches(attacker);
CREATE INDEX IF NOT EXISTS idx_sandwiches_victim ON sandwiches(victim);
CREATE INDEX IF NOT EXISTS idx_sandwiches_date ON sandwiches(landed_date);
CREATE INDEX IF NOT EXISTS idx_sandwiches_slot ON sandwiches(slot);

CREATE TABLE IF NOT EXISTS defensive (
    bundle_id TEXT PRIMARY KEY,
    landed_date TEXT NOT NULL,
    tip_lamports INTEGER NOT NULL,
    classification TEXT NOT NULL CHECK (
        classification IN ('defensive', 'priority')
    )
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_defensive_class
    ON defensive(classification, landed_date);

CREATE TABLE IF NOT EXISTS checkpoints (
    checkpoint_id INTEGER PRIMARY KEY AUTOINCREMENT,
    created_sim_time REAL NOT NULL,
    completed_days INTEGER NOT NULL,
    payload TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS analysis_state (
    consumer TEXT PRIMARY KEY,
    last_bundle_seq INTEGER NOT NULL DEFAULT 0,
    last_detail_seq INTEGER NOT NULL DEFAULT 0,
    updated_sim_time REAL NOT NULL DEFAULT 0,
    state TEXT NOT NULL DEFAULT '{}'
) WITHOUT ROWID;
"""

#: v2: one row counting the stored analysis's whole-archive replacements,
#: so the serving watermark moves when a re-analysis only reclassifies.
_V2_DDL = """
CREATE TABLE IF NOT EXISTS analysis_generation (
    generation INTEGER NOT NULL
);
INSERT INTO analysis_generation (generation)
    SELECT 0 WHERE NOT EXISTS (SELECT 1 FROM analysis_generation);
"""

#: v3: ``defensive`` keyed by its bundle's ``seq`` (copied, with the
#: date and tip, from the ``bundles`` row), so the report rebuild reads
#: one table in collection order with no join.
_V3_DDL = """
CREATE TABLE defensive_v3 (
    bundle_seq INTEGER PRIMARY KEY,
    bundle_id TEXT NOT NULL,
    landed_date TEXT NOT NULL,
    tip_lamports INTEGER NOT NULL,
    classification TEXT NOT NULL CHECK (
        classification IN ('defensive', 'priority')
    )
);
INSERT INTO defensive_v3
    (bundle_seq, bundle_id, landed_date, tip_lamports, classification)
    SELECT b.seq, d.bundle_id, b.landed_date, b.tip_lamports,
        d.classification
    FROM defensive d JOIN bundles b ON b.bundle_id = d.bundle_id;
DROP TABLE defensive;
ALTER TABLE defensive_v3 RENAME TO defensive;
CREATE INDEX idx_defensive_class ON defensive(classification, landed_date);
"""

#: Ordered migration steps: ``MIGRATIONS[v]`` upgrades version v to v+1.
MIGRATIONS: tuple[str, ...] = (_V1_DDL, _V2_DDL, _V3_DDL)

#: Rows that would block ``MIGRATIONS[v]``: a query counting them and what
#: they are. v3 keys every defensive row by its bundle's ``seq``, so a row
#: naming no archived bundle has no key; the step refuses instead of
#: dropping it.
MIGRATION_BLOCKERS: dict[int, tuple[str, str]] = {
    2: (
        "SELECT COUNT(*) FROM defensive "
        "WHERE bundle_id NOT IN (SELECT bundle_id FROM bundles)",
        "defensive rows with no bundles row",
    ),
}


# --- positional decoding ------------------------------------------------------
#
# Every bulk read selects one of the column lists below, fetches plain
# tuples (never ``sqlite3.Row``), and hands each tuple to the matching
# ``*_from_columns`` decoder by position: one exact decoder per record type.
# The decoders build the frozen records by assigning each a ready
# ``__dict__`` (see :func:`new_bundle`) and parse single-id
# ``transaction_ids`` arrays by slicing (see :func:`parse_transaction_ids`);
# every malformed value raises :class:`StoreError`.

#: ``bundles`` columns :func:`bundle_from_columns` takes, in schema order.
BUNDLE_COLUMNS = (
    "bundle_id",
    "slot",
    "landed_at",
    "tip_lamports",
    "transaction_ids",
)
#: ``transactions`` columns :func:`detail_from_columns` takes, in schema order.
DETAIL_COLUMNS = (
    "transaction_id",
    "slot",
    "block_time",
    "signer",
    "signers",
    "fee_lamports",
    "token_deltas",
    "lamport_deltas",
    "events",
)
#: ``sandwiches`` columns :func:`sandwich_from_columns` takes, in schema order.
SANDWICH_COLUMNS = (
    "bundle_id",
    "slot",
    "landed_at",
    "tip_lamports",
    "attacker",
    "victim",
    "victim_loss_quote",
    "attacker_gain_quote",
    "victim_loss_usd",
    "attacker_gain_usd",
    "legs",
)

_new = object.__new__
_set = object.__setattr__


def new_bundle(
    bundle_id: str,
    slot: int,
    landed_at: float,
    tip_lamports: int,
    transaction_ids: tuple[str, ...],
) -> BundleRecord:
    """A :class:`BundleRecord` built without the frozen-init overhead.

    A frozen dataclass's ``__init__`` assigns every field through its own
    ``object.__setattr__`` call. Assigning the new instance one ready
    ``__dict__`` instead (``object.__setattr__`` bypasses the frozen
    guard, which lives in the class's ``__setattr__``) yields a record
    with identical fields, equality and hash for less, and the guard still
    rejects any later assignment. The dict must be a fresh one: filling
    the dict that ``instance.__dict__`` materializes is cheaper still, but
    on CPython 3.11 every later attribute read of such a record misses the
    interpreter's specialized fast path and runs several times slower.
    This holds only while the record types keep their fields in
    ``__dict__`` (are not slots dataclasses); ``tests/archive/test_codec.py``
    pins it for every decoded type.
    """
    record = _new(BundleRecord)
    _set(
        record,
        "__dict__",
        {
            "bundle_id": bundle_id,
            "slot": slot,
            "landed_at": landed_at,
            "tip_lamports": tip_lamports,
            "transaction_ids": transaction_ids,
        },
    )
    return record


def parse_transaction_ids(raw: str) -> tuple[str, ...]:
    """Decode a ``transaction_ids`` JSON array of strings, exactly.

    Most bundles hold one id, and a one-element array whose id contains no
    ``"``, no ``\\`` and no control character means the same to JSON as
    its slice, so that case skips the decoder. ``str.isprintable`` is the
    control-character test: it also refuses some printable-but-unusual
    characters, which then simply take the exact decoder. Anything
    that is not JSON text holding an array of strings raises
    :class:`StoreError`.
    """
    try:
        if raw.startswith('["') and raw.endswith('"]') and len(raw) > 3:
            inner = raw[2:-2]
            if (
                '"' not in inner
                and "\\" not in inner
                and inner.isprintable()
            ):
                return (inner,)
        ids = decode_json(raw)
        if type(ids) is not list:
            raise TypeError(f"not an array: {type(ids).__name__}")
        # str.join type-checks every element in C: the cheapest exact
        # "every id is a string" test.
        "".join(ids)
    except (AttributeError, TypeError, ValueError) as exc:
        raise StoreError(f"malformed transaction_ids {raw!r}: {exc}") from exc
    return tuple(ids)


def bundle_from_columns(
    bundle_id: str,
    slot: int,
    landed_at: float,
    tip_lamports: int,
    transaction_ids: str,
) -> BundleRecord:
    """Decode one :data:`BUNDLE_COLUMNS` row into a bundle record."""
    return new_bundle(
        bundle_id,
        slot,
        landed_at,
        tip_lamports,
        parse_transaction_ids(transaction_ids),
    )


def decode_events(text: str) -> list[dict]:
    """Decode an ``events`` column: a JSON array of objects.

    Both analysis engines decode the column through this, so they refuse
    the same texts. Only the containers are checked; the fields inside
    each event are not.

    Raises:
        ValueError: when ``text`` is not JSON.
        TypeError: when it is not text, or not an array of objects.
    """
    events = decode_json(text)
    if type(events) is not list:
        raise TypeError("events is not an array of objects")
    # A plain loop: a generator under any() costs about three times as
    # much on the object engine's load path.
    for event in events:
        if type(event) is not dict:
            raise TypeError("events is not an array of objects")
    return events


def decode_token_deltas(text: str) -> dict[str, dict]:
    """Decode a ``token_deltas`` column: an object of objects.

    Raises:
        ValueError: when ``text`` is not JSON.
        TypeError: when it is not text, or not an object of objects.
    """
    deltas = decode_json(text)
    if type(deltas) is not dict:
        raise TypeError("token_deltas is not an object of objects")
    for per_mint in deltas.values():
        if type(per_mint) is not dict:
            raise TypeError("token_deltas is not an object of objects")
    return deltas


def detail_from_columns(
    transaction_id: str,
    slot: int,
    block_time: float,
    signer: str,
    signers: str,
    fee_lamports: int,
    token_deltas: str,
    lamport_deltas: str,
    events: str,
) -> TransactionRecord:
    """Decode one :data:`DETAIL_COLUMNS` row into a transaction record.

    Raises:
        StoreError: when a JSON column is not JSON or not its container
            shape (see :func:`decode_events`).
    """
    try:
        signer_list = decode_json(signers)
        if type(signer_list) is not list:
            raise TypeError("signers is not an array")
        # str.join type-checks every element in C.
        "".join(signer_list)
        lamports = decode_json(lamport_deltas)
        if type(lamports) is not dict:
            raise TypeError("lamport_deltas is not an object")
        fields = {
            "transaction_id": transaction_id,
            "slot": slot,
            "block_time": block_time,
            "signer": signer,
            "signers": tuple(signer_list),
            "fee_lamports": fee_lamports,
            "token_deltas": decode_token_deltas(token_deltas),
            "lamport_deltas": lamports,
            "events": tuple(decode_events(events)),
        }
    except (TypeError, ValueError) as exc:
        raise StoreError(f"malformed transactions row: {exc}") from exc
    record = _new(TransactionRecord)
    _set(record, "__dict__", fields)
    return record


def _leg_from_json(payload: dict) -> TradeLeg:
    leg = _new(TradeLeg)
    _set(
        leg,
        "__dict__",
        {
            "owner": str(payload["owner"]),
            "pool": str(payload["pool"]),
            "mint_in": str(payload["mint_in"]),
            "mint_out": str(payload["mint_out"]),
            "amount_in": int(payload["amount_in"]),
            "amount_out": int(payload["amount_out"]),
        },
    )
    return leg


def sandwich_from_columns(
    bundle_id: str,
    slot: int,
    landed_at: float,
    tip_lamports: int,
    attacker: str,
    victim: str,
    victim_loss_quote: float,
    attacker_gain_quote: float,
    victim_loss_usd: float | None,
    attacker_gain_usd: float | None,
    legs: str,
) -> QuantifiedSandwich:
    """Decode one :data:`SANDWICH_COLUMNS` row: event plus financials.

    The rebuilt event carries an id-only bundle (no member ids); see
    :func:`sandwich_with_bundle`.
    """
    try:
        payload = decode_json(legs)
        frontrun = _leg_from_json(payload["frontrun"])
        victim_trade = _leg_from_json(payload["victim_trade"])
        backrun = _leg_from_json(payload["backrun"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise StoreError(f"malformed sandwiches row: {exc}") from exc
    bundle = new_bundle(bundle_id, slot, landed_at, tip_lamports, ())
    event = _new(SandwichEvent)
    _set(
        event,
        "__dict__",
        {
            "bundle": bundle,
            "attacker": attacker,
            "victim": victim,
            "frontrun": frontrun,
            "victim_trade": victim_trade,
            "backrun": backrun,
        },
    )
    item = _new(QuantifiedSandwich)
    _set(
        item,
        "__dict__",
        {
            "event": event,
            "victim_loss_quote": victim_loss_quote,
            "attacker_gain_quote": attacker_gain_quote,
            "victim_loss_usd": victim_loss_usd,
            "attacker_gain_usd": attacker_gain_usd,
        },
    )
    return item


# --- encoding -----------------------------------------------------------------


def bundle_to_row(record: BundleRecord) -> tuple:
    """Flatten a bundle record into the ``bundles`` insert tuple."""
    return (
        record.bundle_id,
        record.slot,
        record.landed_at,
        unix_to_date(record.landed_at),
        record.tip_lamports,
        record.num_transactions,
        encode_json(record.transaction_ids),
    )


def detail_to_row(record: TransactionRecord) -> tuple:
    """Flatten a transaction record into the ``transactions`` insert tuple."""
    return (
        record.transaction_id,
        record.slot,
        record.block_time,
        record.signer,
        encode_json(record.signers),
        record.fee_lamports,
        encode_json_sorted(record.token_deltas),
        encode_json_sorted(record.lamport_deltas),
        encode_json(record.events),
    )


def _leg_to_json(leg: TradeLeg) -> dict:
    return {
        "owner": leg.owner,
        "pool": leg.pool,
        "mint_in": leg.mint_in,
        "mint_out": leg.mint_out,
        "amount_in": leg.amount_in,
        "amount_out": leg.amount_out,
    }


def sandwich_to_row(item: QuantifiedSandwich) -> tuple:
    """Flatten a quantified sandwich into the ``sandwiches`` insert tuple."""
    event = item.event
    legs = encode_json_sorted(
        {
            "frontrun": _leg_to_json(event.frontrun),
            "victim_trade": _leg_to_json(event.victim_trade),
            "backrun": _leg_to_json(event.backrun),
        }
    )
    return (
        event.bundle_id,
        event.bundle.slot,
        event.landed_at,
        unix_to_date(event.landed_at),
        event.tip_lamports,
        event.attacker,
        event.victim,
        event.quote_mint,
        1 if event.involves_sol else 0,
        item.victim_loss_quote,
        item.attacker_gain_quote,
        item.victim_loss_usd,
        item.attacker_gain_usd,
        legs,
    )


def sandwich_with_bundle(
    item: QuantifiedSandwich, bundle: BundleRecord
) -> QuantifiedSandwich:
    """Reattach the full bundle record (with member tx ids) to a rebuilt row.

    ``sandwich_from_columns`` alone carries an id-only bundle; joining
    against the ``bundles`` table restores the exact wire-level record,
    making the round trip loss-free.
    """
    event = item.event
    return QuantifiedSandwich(
        event=SandwichEvent(
            bundle=bundle,
            attacker=event.attacker,
            victim=event.victim,
            frontrun=event.frontrun,
            victim_trade=event.victim_trade,
            backrun=event.backrun,
        ),
        victim_loss_quote=item.victim_loss_quote,
        attacker_gain_quote=item.attacker_gain_quote,
        victim_loss_usd=item.victim_loss_usd,
        attacker_gain_usd=item.attacker_gain_usd,
    )
