"""Descriptor campaigns with columnar-specific edge cases.

Extends the parallel tier's descriptor idiom with the shapes the columnar
engine must get right: self-sandwiches (attacker == victim), zero-tip
bundles, multi-hop victims (several swap legs in one transaction), and
big-integer amounts past both the int64 fast-path bound and SQLite's
64-bit JSON integer range.
"""

from __future__ import annotations

from pathlib import Path

from repro.archive.database import ArchiveDatabase
from repro.explorer.models import BundleRecord, TransactionRecord
from repro.parallel.chunks import ChunkTask, DetectorSpec
from repro.parallel.worker import ChunkOutcome, compute_task, load_task
from tests.core.helpers import MEME, OTHER, SOL, swap_record
from tests.parallel.helpers import write_rows

#: Every descriptor kind the columnar strategies draw from.
KINDS = (
    "sandwich",
    "self_sandwich",
    "zero_tip_sandwich",
    "multihop_victim",
    "bigint_sandwich",
    "benign3",
    "undetailed3",
    "plain",
    "pair",
)

_counter = [0]


def _next(prefix: str) -> str:
    _counter[0] += 1
    return f"col-{prefix}-{_counter[0]}"


def _multihop_victim(signer: str, token: str) -> TransactionRecord:
    """A victim routing through two pools: two swap legs, first one read."""
    hop = swap_record(signer, SOL, token, 10_000, 9_000_000)
    second_leg = {
        "type": "swap",
        "pool": "POOL-HOP2",
        "owner": signer,
        "mint_in": token,
        "mint_out": OTHER,
        "amount_in": 9_000_000,
        "amount_out": 8_000,
    }
    return TransactionRecord(
        transaction_id=hop.transaction_id,
        slot=hop.slot,
        block_time=hop.block_time,
        signer=signer,
        signers=(signer,),
        fee_lamports=hop.fee_lamports,
        token_deltas=hop.token_deltas,
        events=(*hop.events, second_leg),
    )


def _sandwich(
    attacker: str, victim: str, token: str = MEME
) -> list[TransactionRecord]:
    return [
        swap_record(attacker, SOL, token, 1_000, 1_000_000),
        swap_record(victim, SOL, token, 10_000, 9_000_000),
        swap_record(attacker, token, SOL, 1_000_000, 1_100),
    ]


def _bigint_sandwich(attacker: str, victim: str) -> list[TransactionRecord]:
    """Amounts past 2**52 (exact-math switch) and 2**63 (JSON degrade)."""
    huge_in = 2**52 + 3
    huge_out = 2**63 + 7
    return [
        swap_record(attacker, SOL, MEME, huge_in, huge_out),
        swap_record(victim, SOL, MEME, huge_in * 9, huge_out * 8),
        swap_record(attacker, MEME, SOL, huge_out, huge_in + 55),
    ]


def descriptor_rows(
    descriptors: list[tuple],
) -> list[tuple[BundleRecord, list[TransactionRecord]]]:
    """Materialize ``(kind, landed_offset, tip)`` descriptors into rows."""
    rows = []
    base = 1_739_059_200.0
    for position, (kind, landed_offset, tip) in enumerate(descriptors):
        if kind == "sandwich":
            records = _sandwich(f"atk-{position}", f"vic-{position}")
        elif kind == "self_sandwich":
            actor = f"self-{position}"
            records = _sandwich(actor, actor)
        elif kind == "zero_tip_sandwich":
            records = _sandwich(f"zatk-{position}", f"zvic-{position}")
            tip = 0
        elif kind == "multihop_victim":
            attacker = f"hatk-{position}"
            records = [
                swap_record(attacker, SOL, MEME, 1_000, 1_000_000),
                _multihop_victim(f"hvic-{position}", MEME),
                swap_record(attacker, MEME, SOL, 1_000_000, 1_100),
            ]
        elif kind == "bigint_sandwich":
            records = _bigint_sandwich(f"batk-{position}", f"bvic-{position}")
        elif kind in {"benign3", "undetailed3"}:
            records = [
                swap_record(f"user-{_next('u')}", SOL, OTHER, 500, 400_000)
                for _ in range(3)
            ]
        elif kind == "pair":
            records = [
                swap_record(f"user-{_next('u')}", SOL, OTHER, 500, 400_000)
                for _ in range(2)
            ]
        else:  # plain length-1
            records = [
                swap_record(f"user-{_next('u')}", SOL, OTHER, 500, 400_000)
            ]
        bundle = BundleRecord(
            bundle_id=_next("bundle"),
            slot=1_000 + position,
            landed_at=base + float(landed_offset),
            tip_lamports=tip,
            transaction_ids=tuple(r.transaction_id for r in records),
        )
        detailed = kind not in {"undetailed3", "pair"}
        rows.append((bundle, records if detailed else []))
    return rows


def build_archive(path: Path, descriptors: list[tuple]) -> Path:
    """Materialize a descriptor campaign into a fresh archive database."""
    write_rows(path, descriptor_rows(descriptors))
    return path


def outcome_key(outcome: ChunkOutcome) -> tuple:
    """The deterministic payload of an outcome (timing/worker excluded)."""
    return (
        outcome.index,
        outcome.bundle_count,
        outcome.quantified,
        outcome.defensive,
        outcome.priority,
        outcome.stats,
        outcome.pending_detail_ids,
    )


def both_outcomes(
    path: Path,
    spec: DetectorSpec | None = None,
    bundle_ids: tuple[str, ...] = (),
    chunk=None,
) -> tuple[ChunkOutcome, ChunkOutcome]:
    """Run the object and columnar analyzers over the same chunk."""
    from repro.archive.query import ArchiveQuery

    database = ArchiveDatabase(path, read_only=True)
    spec = spec or DetectorSpec(usd_per_sol=150.0)
    if chunk is None and not bundle_ids:
        chunks = list(ArchiveQuery(database).iter_chunks(chunk_size=10_000))
        assert len(chunks) <= 1
        if not chunks:
            database.close()
            raise AssertionError("archive is empty; pass bundle_ids")
        chunk = chunks[0]
    fields = dict(
        index=0,
        spec=spec,
        chunk=chunk,
        bundle_ids=bundle_ids,
    )
    obj_task = ChunkTask(**fields, engine="object")
    col_task = ChunkTask(**fields, engine="columnar")
    obj = compute_task(obj_task, load_task(database, obj_task))
    col = compute_task(col_task, load_task(database, col_task))
    database.close()
    return obj, col
