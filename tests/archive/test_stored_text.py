"""The archive's stored JSON text, pinned byte for byte.

Round-trip tests compare decoded values, and equal dicts compare equal
whatever their key order, so they cannot see a change in the text an
archive stores. Other readers do see it: the columnar engine walks
``token_deltas`` in storage order, and archives written by one build are
read by the next. Each digest below covers one JSON column, its rows
ordered by key, and was recorded before the archive's JSON encoding moved
to :mod:`repro.utils.serialization`'s codec; the finished-marker
checkpoint's, once its metrics snapshot held no wall-clock value. A digest
may only move with a schema version bump. The two checkpoint digests were
recorded again each time the campaign's metrics snapshot lost families
that no report reads: ``span_duration_seconds`` and ``span_total``, which
never held a nonzero duration, and later
``collector_backoff_delay_seconds``, the delays of retries that never
waited, which held no series in this run. Each time, every payload
equalled its predecessor decoded, with those families dropped, and
re-encoded with ``encode_json_sorted``.
"""

from __future__ import annotations

import hashlib
import sqlite3

import pytest

from repro.archive import (
    ArchiveDatabase,
    CheckpointedCampaign,
    IncrementalAnalyzer,
)
from repro.conformance.scenarios import (
    CORPUS_SCENARIOS,
    generate_rows,
    write_archive,
)
from repro.parallel import ParallelAnalysisEngine
from repro.simulation import small_scenario

#: Column → (the query reading its rows in key order, sha256 over the
#: values, each UTF-8 encoded and followed by a newline).
PINNED = {
    "bundles.transaction_ids": (
        "SELECT transaction_ids FROM bundles ORDER BY bundle_id",
        "41d55146b892587a5fca62df5061873839292878757057b1e2de640ac68230d0",
    ),
    "transactions.signers": (
        "SELECT signers FROM transactions ORDER BY transaction_id",
        "067fbee9a673b71d3a43649404743f541facdfccb7ed323ec75dfa7f6bcae0aa",
    ),
    "transactions.token_deltas": (
        "SELECT token_deltas FROM transactions ORDER BY transaction_id",
        "559f20d1ef0911395967ab9dc8bc742c2fdd99503e3345cdb8ec04448f085c34",
    ),
    "transactions.lamport_deltas": (
        "SELECT lamport_deltas FROM transactions ORDER BY transaction_id",
        "e81fe475a51c43f0e305250bfe337eba533f37d5042ea90bcddbf41e895781e5",
    ),
    "transactions.events": (
        "SELECT events FROM transactions ORDER BY transaction_id",
        "987fc2f4771ce816417eb2b8fd484616cc103f139fed8feff2d5817199c8fbd2",
    ),
    "sandwiches.legs": (
        "SELECT legs FROM sandwiches ORDER BY bundle_id",
        "0e08463f5c3917af631b280502a05691325e73c771607f159dc831257649e238",
    ),
    "analysis_state.state": (
        "SELECT state FROM analysis_state ORDER BY consumer",
        "42fd861169c4aadbdd0c1c41b85bff4ff3c97ce7a37d6596cd24d8482c324006",
    ),
    "checkpoints.payload": (
        "SELECT payload FROM checkpoints WHERE payload NOT LIKE "
        "'%\"finished\": true%' ORDER BY checkpoint_id",
        "f74d3a03aaea92c0fe76ad9522b12292911c08132c8cf79065865c6b1e5c6b5e",
    ),
    "checkpoints.payload.finished": (
        "SELECT payload FROM checkpoints WHERE payload LIKE "
        "'%\"finished\": true%' ORDER BY checkpoint_id",
        "8a1169b6cc9d24b6dc4a054fa8a63c4fd298cea8329523ef1ba61c156231a1c8",
    ),
}


@pytest.fixture(scope="module")
def archives(tmp_path_factory) -> dict[str, object]:
    """Two archives: an analyzed corpus archive (full pass, then an
    incremental pass) and a two-day checkpointed campaign's."""
    root = tmp_path_factory.mktemp("stored-text")
    analyzed = write_archive(
        generate_rows(CORPUS_SCENARIOS[0]), root / "corpus.db"
    )
    with ArchiveDatabase(analyzed) as database:
        ParallelAnalysisEngine(database).analyze()
        IncrementalAnalyzer(database).analyze()
    with ArchiveDatabase(root / "campaign.db") as database:
        CheckpointedCampaign(small_scenario(seed=7, days=2), database).run()
    return {"analyzed": analyzed, "campaign": root / "campaign.db"}


def column_digest(path, sql: str) -> tuple[str, int]:
    """sha256 of the text ``sql`` selects, and the row count."""
    conn = sqlite3.connect(path)
    try:
        rows = conn.execute(sql).fetchall()
    finally:
        conn.close()
    digest = hashlib.sha256()
    for (value,) in rows:
        digest.update(value.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest(), len(rows)


@pytest.mark.parametrize("column", list(PINNED))
def test_stored_json_text_is_unchanged(archives, column):
    sql, pinned = PINNED[column]
    source = archives[
        "campaign" if column.startswith("checkpoints.") else "analyzed"
    ]
    digest, count = column_digest(source, sql)
    assert count > 0, f"{column} holds no rows to pin"
    assert digest == pinned
