"""Unit coverage for the struct-of-arrays blocks and their loaders."""

import json
from dataclasses import replace

import pytest

np = pytest.importorskip("numpy")

from repro.archive.database import ArchiveDatabase  # noqa: E402
from repro.archive.query import ArchiveQuery  # noqa: E402
from repro.columnar.blocks import (  # noqa: E402
    BundleBlock,
    load_bundle_block,
    load_bundle_block_for_ids,
    load_tx_features,
    load_tx_features_range,
    num_array,
    obj_array,
    split_candidates,
    tx_features,
)
from repro.core.trades import extract_trades  # noqa: E402
from repro.explorer.models import BundleRecord  # noqa: E402
from tests.columnar.helpers import build_archive, descriptor_rows  # noqa: E402
from tests.core.helpers import swap_record  # noqa: E402
from tests.parallel.helpers import write_rows  # noqa: E402

pytestmark = pytest.mark.columnar

MIXED = [
    ("sandwich", 0, 500_000),
    ("plain", 0, 20_000),
    ("benign3", 1, 90_000),
    ("undetailed3", 2, 110_000),
    ("pair", 2, 400_000),
    ("bigint_sandwich", 3, 750_000),
]


@pytest.fixture()
def archive(tmp_path):
    return build_archive(tmp_path / "blocks.db", MIXED)


def test_round_trip_records_block_records():
    records = [bundle for bundle, _ in descriptor_rows(MIXED)]
    block = BundleBlock.from_records(records)
    assert block.to_records() == records
    assert [block.transaction_ids(i) for i in range(len(block))] == [
        r.transaction_ids for r in records
    ]


def test_load_bundle_block_matches_archive_rows(archive):
    database = ArchiveDatabase(archive, read_only=True)
    query = ArchiveQuery(database)
    block = load_bundle_block(query, 1, 10_000)
    rows = database.connection.execute(
        "SELECT * FROM bundles ORDER BY seq"
    ).fetchall()
    # An independent decode: the frozen constructor over by-name columns.
    assert block.to_records() == [
        BundleRecord(
            bundle_id=row["bundle_id"],
            slot=row["slot"],
            landed_at=row["landed_at"],
            tip_lamports=row["tip_lamports"],
            transaction_ids=tuple(json.loads(row["transaction_ids"])),
        )
        for row in rows
    ]
    assert block.lengths == [3, 1, 3, 3, 2, 3]
    database.close()


def test_load_block_for_ids_preserves_worklist_order(archive):
    database = ArchiveDatabase(archive, read_only=True)
    query = ArchiveQuery(database)
    full = load_bundle_block(query, 1, 10_000)
    worklist = (
        full.bundle_ids[3],
        "never-collected",
        full.bundle_ids[0],
    )
    block = load_bundle_block_for_ids(query, worklist)
    # Missing ids are dropped; the rest keep worklist (not seq) order.
    assert block.bundle_ids == [full.bundle_ids[3], full.bundle_ids[0]]
    database.close()


def test_num_array_falls_back_to_object_dtype():
    fast = num_array([1, 2, 3])
    assert fast.dtype == np.int64
    big = num_array([1, 2**64, 3])
    assert big.dtype == object
    assert big[1] == 2**64
    # Object arrays keep Python arithmetic: no wraparound, no rounding.
    assert (big * 2)[1] == 2**65


def test_obj_array_never_nests_sequences():
    sets = [frozenset({"a"}), frozenset({"b", "c"})]
    array = obj_array(sets)
    assert array.shape == (2,)
    assert array[1] == frozenset({"b", "c"})


def test_big_integer_amounts_survive_feature_extraction(archive):
    """Amounts past 2**63 reach the features exactly: details are parsed
    by Python's arbitrary-precision ``json``."""
    database = ArchiveDatabase(archive, read_only=True)
    query = ArchiveQuery(database)
    block = load_bundle_block(query, 1, 10_000)
    bigint_index = block.lengths.index(3, 5)  # the bigint_sandwich bundle
    members = block.transaction_ids(bigint_index)
    payloads = load_tx_features(query, list(members), list(members))
    front_features = tx_features(*payloads[members[0]])
    front = front_features.legs[0]
    assert front[4] == 2**52 + 3
    assert front[5] == 2**63 + 7
    assert isinstance(front[5], int)
    # Token deltas round-trip exactly too.
    deltas = {
        (owner, mint): value for owner, mint, value in front_features.deltas
    }
    assert set(deltas.values()) == {-(2**52 + 3), 2**63 + 7}
    database.close()


def test_features_skip_deltas_outside_the_edge_set(archive):
    database = ArchiveDatabase(archive, read_only=True)
    query = ArchiveQuery(database)
    block = load_bundle_block(query, 1, 10_000)
    members = block.transaction_ids(0)
    payloads = load_tx_features(query, list(members), [members[0]])
    assert tx_features(*payloads[members[0]]).deltas
    assert payloads[members[1]][2] is None
    assert tx_features(*payloads[members[1]]).deltas == ()
    database.close()


def test_split_decides_criterion_one_before_features(archive):
    """A complete candidate whose signers fail criterion 1 is counted and
    dropped before its features exist; skipping the criterion admits
    it. Pending candidates are settled first either way."""
    database = ArchiveDatabase(archive, read_only=True)
    query = ArchiveQuery(database)
    block = load_bundle_block(query, 1, 10_000)
    payloads = load_tx_features_range(query, 1, 10_000)
    database.close()
    indexes = [i for i, length in enumerate(block.lengths) if length == 3]
    split = split_candidates(block, payloads, indexes)
    # MIXED: 0 sandwich, 2 benign3 (three signers), 3 undetailed3,
    # 5 bigint_sandwich.
    assert split.candidates.indexes == [0, 5]
    assert split.signer_rejections == 1
    assert split.pending == (block.bundle_ids[3],)
    ablated = split_candidates(
        block,
        payloads,
        indexes,
        skip=frozenset({"same_attacker_distinct_victim"}),
    )
    assert ablated.candidates.indexes == [0, 2, 5]
    assert ablated.signer_rejections == 0
    assert ablated.pending == split.pending


def test_non_string_identities_coerce_like_the_object_path(tmp_path):
    """Swap legs with a non-string ``owner`` / ``pool`` carry the object
    path's ``str()`` of the parsed JSON value on both loaders."""
    records = [
        replace(
            record,
            events=tuple(
                {**event, "owner": True, "pool": {"p": 1}}
                for event in record.events
            ),
        )
        for record in (
            swap_record(f"odd-{position}") for position in range(3)
        )
    ]
    bundle = BundleRecord(
        bundle_id="odd-identities",
        slot=1_000,
        landed_at=1_739_059_200.0,
        tip_lamports=500_000,
        transaction_ids=tuple(r.transaction_id for r in records),
    )
    path = tmp_path / "odd.db"
    write_rows(path, [(bundle, records)])
    database = ArchiveDatabase(path, read_only=True)
    query = ArchiveQuery(database)
    members = list(bundle.transaction_ids)
    by_ids = load_tx_features(query, members, members)
    by_range = load_tx_features_range(query, 1, 1)
    database.close()
    for record in records:
        expected = tuple(
            (
                leg.owner,
                leg.pool,
                leg.mint_in,
                leg.mint_out,
                leg.amount_in,
                leg.amount_out,
            )
            for leg in extract_trades(record)
        )
        assert expected[0][:2] == ("True", "{'p': 1}")
        for payloads in (by_ids, by_range):
            legs = tx_features(*payloads[record.transaction_id]).legs
            assert legs == expected
