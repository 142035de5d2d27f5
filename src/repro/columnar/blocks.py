"""Struct-of-arrays blocks loaded from archive projections.

A :class:`BundleBlock` holds one chunk's bundle scalars as parallel Python
lists (SQLite already returns typed Python values; keeping them avoids a
numpy round-trip for fields that end up in output records). Member
transaction ids stay as raw JSON text, parsed lazily by the archive
codec's :func:`~repro.archive.schema.parse_transaction_ids`; classifying
the length-one singles, most of a mixed archive, builds no record from
them.

The loaders decode each candidate member's raw ``events`` and
``token_deltas`` text through the archive codec's
:func:`~repro.archive.schema.decode_events` and
:func:`~repro.archive.schema.decode_token_deltas`, exactly as the object
path's record loader does, so identities and arbitrary-size integer
amounts reach the criteria unchanged, and a text the codec refuses raises
the same :class:`~repro.errors.StoreError` whichever candidate holds it.
:func:`split_candidates` then decides criterion 1 on the members' signer
strings and builds per-transaction features (:class:`TxFeatures`: swap
legs, traded mint sets, the tip-only flag, long-form token deltas) only
for the candidates that pass it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.archive.query import ArchiveQuery
from repro.archive.schema import (
    decode_events,
    decode_token_deltas,
    new_bundle,
    parse_transaction_ids,
)
from repro.core.defensive import DefensiveReport
from repro.errors import StoreError
from repro.explorer.models import BundleRecord
from repro.jito.tips import is_tip_account
from repro.utils.simtime import count_dates

try:  # numpy is optional; blocks degrade to pure-python containers
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via columnar_available
    _np = None

#: First-leg amounts at or below this bound make int64 vector math
#: bit-identical to Python scalar math (see :mod:`repro.columnar.criteria`
#: for the argument); larger amounts switch the block to object-dtype
#: arrays whose elementwise ops *are* Python's.
EXACT_INT64_LIMIT = 2**52


def obj_array(values: Sequence) -> "_np.ndarray":
    """A 1-D object array that never treats elements as nested sequences."""
    array = _np.empty(len(values), dtype=object)
    array[:] = list(values)
    return array


def num_array(values: Sequence) -> "_np.ndarray":
    """Numeric column: int64 when every value fits, else object dtype.

    Object dtype keeps Python's arbitrary-precision arithmetic (numpy
    elementwise ops on object arrays call the operands' own ``__op__``),
    which is exactly what the byte-identity contract needs for amounts
    beyond the int64 fast path.
    """
    try:
        return _np.array(list(values), dtype=_np.int64)
    except (OverflowError, ValueError, TypeError):
        return obj_array(values)


@dataclass
class BundleBlock:
    """One chunk's bundles in struct-of-arrays form (collection order)."""

    seqs: list[int]
    bundle_ids: list[str]
    slots: list[int]
    landed_at: list[float]
    tips: list[int]
    lengths: list[int]
    txids_raw: list[str | None]
    _txids: list[tuple[str, ...] | None] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        """Prepare the lazy parsed-ids cache."""
        if self._txids is None:
            self._txids = [None] * len(self.bundle_ids)

    def __len__(self) -> int:
        """Bundles in the block."""
        return len(self.bundle_ids)

    def transaction_ids(self, index: int) -> tuple[str, ...]:
        """Member transaction ids of bundle ``index`` (parsed lazily)."""
        ids = self._txids[index]
        if ids is None:
            ids = parse_transaction_ids(self.txids_raw[index])
            self._txids[index] = ids
        return ids

    def record(self, index: int) -> BundleRecord:
        """Materialize one bundle as the object path's record type.

        Built through the archive codec's
        :func:`~repro.archive.schema.new_bundle`, which skips the frozen
        dataclass ``__init__`` (one guarded ``object.__setattr__`` per
        field).
        """
        return new_bundle(
            self.bundle_ids[index],
            self.slots[index],
            self.landed_at[index],
            self.tips[index],
            self.transaction_ids(index),
        )

    def to_records(self) -> list[BundleRecord]:
        """Materialize every bundle, in block order (round-trip helper)."""
        return [self.record(index) for index in range(len(self))]

    def classify_singles(self, threshold: int) -> DefensiveReport:
        """Classify the block's length-one bundles, in block order.

        Builds no record: ids, tip total and per-day counts come from the
        id, tip and landing-time columns, and equal what
        ``DefensiveBundlingClassifier.classify_records`` makes of
        :meth:`to_records`. Each single's stored member ids are still
        decoded and dropped, so a malformed value raises
        :class:`~repro.errors.StoreError` here as it does in the object
        engine's record decoder.
        """
        report = DefensiveReport(threshold_lamports=threshold)
        defensive, priority = report.defensive_ids, report.priority_ids
        ids, landed, tips = self.bundle_ids, self.landed_at, self.tips
        raw = self.txids_raw
        tips_total = 0
        defensive_landed: list[float] = []
        for index, length in enumerate(self.lengths):
            if length != 1:
                continue
            parse_transaction_ids(raw[index])
            tip = tips[index]
            if tip <= threshold:
                defensive.append(ids[index])
                tips_total += tip
                defensive_landed.append(landed[index])
            else:
                priority.append(ids[index])
        report.defensive_tips_lamports = tips_total
        report.defensive_by_day = count_dates(defensive_landed)
        return report

    @classmethod
    def from_rows(cls, rows: Sequence) -> "BundleBlock":
        """Transpose projection rows (see ``ArchiveQuery.bundle_columns``)."""
        if not rows:
            return cls([], [], [], [], [], [], [])
        seqs, ids, slots, landed, tips, lengths, raw = map(
            list, zip(*rows)
        )
        return cls(seqs, ids, slots, landed, tips, lengths, raw)

    @classmethod
    def from_records(
        cls, records: Sequence[BundleRecord]
    ) -> "BundleBlock":
        """Build a block from object-path records (round-trip helper)."""
        block = cls(
            seqs=list(range(1, len(records) + 1)),
            bundle_ids=[r.bundle_id for r in records],
            slots=[r.slot for r in records],
            landed_at=[r.landed_at for r in records],
            tips=[r.tip_lamports for r in records],
            lengths=[r.num_transactions for r in records],
            txids_raw=[None] * len(records),
        )
        block._txids = [tuple(r.transaction_ids) for r in records]
        return block


def load_bundle_block(
    query: ArchiveQuery, seq_lo: int, seq_hi: int
) -> BundleBlock:
    """Load one contiguous ``seq`` range as a block."""
    return BundleBlock.from_rows(query.bundle_columns(seq_lo, seq_hi))


def load_bundle_block_for_ids(
    query: ArchiveQuery, bundle_ids: Sequence[str]
) -> BundleBlock:
    """Load an explicit worklist as a block, preserving worklist order.

    Ids the archive does not hold are dropped — exactly what the object
    path's per-id lookups do for the incremental analyzer's pending list.
    """
    by_id = {
        row[1]: row for row in query.bundle_columns_for_ids(bundle_ids)
    }
    rows = [by_id[b] for b in bundle_ids if b in by_id]
    return BundleBlock.from_rows(rows)


@dataclass
class TxFeatures:
    """Everything criteria 2-5 and quantification need from one transaction.

    ``legs`` are ``(owner, pool, mint_in, mint_out, amount_in, amount_out)``
    tuples in event order with the object path's coercions applied
    (``str`` on identities, ``int`` on amounts); ``deltas`` is the
    long-form ``(owner, mint, value)`` list in JSON storage order.
    """

    signer: str
    legs: tuple[tuple, ...]
    mints: frozenset[str]
    tip_only: bool
    deltas: tuple[tuple, ...]


#: One member's decoded detail: ``(signer, events, token_deltas)``, with
#: ``token_deltas`` None where detection never reads it.
TxPayload = tuple[str, list, "dict | None"]


def tx_features(
    signer: str, events: Sequence[dict], deltas: dict | None
) -> TxFeatures:
    """Build one transaction's features from its decoded detail.

    ``events`` is the decoded ``events`` array and ``deltas`` the decoded
    ``token_deltas`` object, or None for a member whose deltas detection
    never reads; its ``deltas`` stay empty.
    """
    legs = []
    mints: set[str] = set()
    has_swap = has_token_transfer = has_transfer = False
    all_tip = True
    for event in events:
        etype = event.get("type")
        if etype == "swap":
            has_swap = True
            leg = (
                str(event.get("owner")),
                str(event.get("pool")),
                str(event.get("mint_in")),
                str(event.get("mint_out")),
                int(event.get("amount_in")),
                int(event.get("amount_out")),
            )
            legs.append(leg)
            mints.add(leg[2])
            mints.add(leg[3])
        elif etype == "token_transfer":
            has_token_transfer = True
        elif etype == "transfer":
            has_transfer = True
            dest = event.get("dest")
            if not is_tip_account(str(dest if dest is not None else "")):
                all_tip = False
    tip_only = (
        not has_swap and not has_token_transfer and has_transfer and all_tip
    )
    return TxFeatures(
        signer=signer,
        legs=tuple(legs),
        mints=frozenset(mints),
        tip_only=tip_only,
        deltas=()
        if deltas is None
        else tuple(
            (owner, mint, value)
            for owner, mint_map in deltas.items()
            for mint, value in mint_map.items()
        ),
    )


def _decode_payload(
    signer: str, events_json: str, deltas_json: str | None
) -> TxPayload:
    """Decode one member's raw ``events`` / deltas text.

    Raises:
        StoreError: when either text is not JSON or not its container
            shape, as the object engine's
            :func:`~repro.archive.schema.detail_from_columns` does.
    """
    try:
        return (
            signer,
            decode_events(events_json),
            None if deltas_json is None else decode_token_deltas(deltas_json),
        )
    except (TypeError, ValueError) as exc:
        raise StoreError(f"malformed transactions row: {exc}") from exc


def load_tx_features(
    query: ArchiveQuery,
    tx_ids: Sequence[str],
    delta_ids: Sequence[str],
) -> dict[str, TxPayload]:
    """Decode the archived detail text of ``tx_ids``.

    Returns each member's :data:`TxPayload`; :func:`split_candidates`
    builds :class:`TxFeatures` for the candidates that pass criterion 1.
    ``delta_ids`` names the subset whose token deltas matter (the
    attacker-side edge transactions); the others skip the deltas decode.
    Ids without an archived detail are absent from the result.
    """
    delta_wanted = set(delta_ids)
    return {
        tx: _decode_payload(
            signer, events, deltas if tx in delta_wanted else None
        )
        for tx, signer, events, deltas in query.detail_payloads(
            list(dict.fromkeys(tx_ids))
        )
    }


def load_tx_features_range(
    query: ArchiveQuery, seq_lo: int, seq_hi: int
) -> dict[str, TxPayload]:
    """Decode every candidate member's detail in a ``seq`` range, coalesced.

    The range-join form of :func:`load_tx_features`: one constant-SQL
    round-trip covers every length-three bundle in the chunk, with no
    Python-side id collection and no ``IN``-list construction. Members
    whose details were never fetched are simply absent from the result —
    the same "missing detail" signal the id path produces.
    """
    return {
        tx: _decode_payload(signer, events, deltas)
        for tx, signer, events, deltas in query.candidate_payloads(
            seq_lo, seq_hi
        )
    }


@dataclass
class InternPool:
    """Cross-chunk interning tables for the code columns.

    Codes are only ever compared for equality *within* one block's
    columns, so sharing the tables across chunks is sound — equal values
    still get equal codes, unequal values unequal codes — and saves
    re-interning the same mints and mint sets for every chunk of a long
    scan. One pool per analysis run (per worker process under ``--jobs``)
    is the intended scope; the codes never appear in any output, so pool
    reuse cannot affect byte identity.
    """

    mint_sets: dict = field(default_factory=dict)
    leg_mints: dict = field(default_factory=dict)


@dataclass
class CandidateBlock:
    """Complete length-three candidates as parallel columns.

    ``indexes`` point back into the source :class:`BundleBlock`;
    ``features`` holds each candidate's three member :class:`TxFeatures`
    in bundle order. :func:`split_candidates` admits only candidates
    that pass criterion 1, unless the spec skips it. Everything else is
    a derived column, built once and cached — criteria and quantification
    share the same arrays, and the hot comparisons run on interned int64
    *code* columns (equal mints or mint sets get equal codes) rather than
    object-dtype elementwise Python calls. ``intern`` optionally shares
    the interning tables across blocks (see :class:`InternPool`); without
    one, each block interns from scratch.
    """

    block: BundleBlock
    indexes: list[int]
    features: list[tuple[TxFeatures, TxFeatures, TxFeatures]]
    _cache: dict = field(default_factory=dict, repr=False)
    intern: InternPool | None = None

    def __len__(self) -> int:
        """Candidates in the block."""
        return len(self.indexes)

    def first_leg(self, candidate: int, position: int) -> tuple | None:
        """First swap leg tuple of member ``position`` (None if no swap)."""
        legs = self.features[candidate][position].legs
        return legs[0] if legs else None

    def prepare(self) -> "CandidateBlock":
        """Materialize every derived column (the load-phase hook).

        After this, :func:`~repro.columnar.criteria.evaluate_block` and
        :func:`~repro.columnar.quantify.quantify_block` touch cached
        primitive arrays only — the boundary the detection-core
        benchmarks measure. Returns ``self`` for chaining.
        """
        for position in range(3):
            self.leg_columns(position)
        self.mint_set_code_columns()
        self.leg_code_columns()
        self.tip_only_tail_column()
        self.attacker_delta_columns(self.leg_columns(0)[0])
        self.landed_column()
        self.needs_exact_math()
        return self

    def mint_set_code_columns(self) -> tuple:
        """Interned mint-set columns: ``(codes, nonempty)`` triples.

        ``codes`` are int64 columns where equal frozensets share a code;
        ``nonempty`` are bool columns marking members that traded at all
        (the empty set gets its own code, so equality still works, but
        criterion 2 additionally demands non-emptiness).
        """
        if "mint_set_codes" not in self._cache:
            interned: dict[frozenset, int] = (
                self.intern.mint_sets if self.intern is not None else {}
            )
            codes = []
            nonempty = []
            for pos in range(3):
                sets = [f[pos].mints for f in self.features]
                codes.append(
                    _np.array(
                        [interned.setdefault(s, len(interned)) for s in sets],
                        dtype=_np.int64,
                    )
                )
                nonempty.append(
                    _np.array([bool(s) for s in sets], dtype=bool)
                )
            self._cache["mint_set_codes"] = (tuple(codes), tuple(nonempty))
        return self._cache["mint_set_codes"]

    def leg_code_columns(self) -> tuple:
        """Per-position ``(mint_in, mint_out)`` int64 code pairs.

        One intern table spans all six columns, so cross-position mint
        comparisons (criterion 3's pair check) are plain int64 equality.
        Missing legs carry the sentinel ``""`` code — callers mask by
        presence exactly as with :meth:`leg_columns`.
        """
        if "leg_codes" not in self._cache:
            codes: dict[str, int] = (
                self.intern.leg_mints if self.intern is not None else {}
            )
            pairs = []
            for position in range(3):
                _, mint_in, mint_out, _, _ = self.leg_columns(position)
                pairs.append(
                    tuple(
                        _np.array(
                            [codes.setdefault(m, len(codes)) for m in col],
                            dtype=_np.int64,
                        )
                        for col in (mint_in, mint_out)
                    )
                )
            self._cache["leg_codes"] = tuple(pairs)
        return self._cache["leg_codes"]

    def leg_columns(self, position: int) -> tuple:
        """Decomposed first-leg columns of member ``position``.

        Returns ``(present, mint_in, mint_out, amount_in, amount_out)``:
        a bool array plus object/numeric columns with sentinel values
        (empty string / 1) where the member has no swap leg — callers
        must mask by ``present``. The amount sentinel is 1, not 0, so
        masked lanes never divide by zero. Built once per position and
        cached: criteria and quantification read the same arrays.
        """
        key = ("legs", position)
        if key in self._cache:
            return self._cache[key]
        present, mint_in, mint_out, a_in, a_out = [], [], [], [], []
        for candidate in range(len(self)):
            leg = self.first_leg(candidate, position)
            if leg is None:
                present.append(False)
                mint_in.append("")
                mint_out.append("")
                a_in.append(1)
                a_out.append(1)
            else:
                present.append(True)
                mint_in.append(leg[2])
                mint_out.append(leg[3])
                a_in.append(leg[4])
                a_out.append(leg[5])
        columns = (
            _np.array(present, dtype=bool),
            obj_array(mint_in),
            obj_array(mint_out),
            num_array(a_in),
            num_array(a_out),
        )
        self._cache[key] = columns
        return columns

    def tip_only_tail_column(self) -> "_np.ndarray":
        """Bool array: the last member only tips a validator."""
        if "tip_only" not in self._cache:
            self._cache["tip_only"] = _np.array(
                [f[2].tip_only for f in self.features], dtype=bool
            )
        return self._cache["tip_only"]

    def attacker_delta_columns(self, front_present: Sequence[bool]) -> tuple:
        """Per-candidate net attacker deltas in the front leg's two mints.

        Mirrors :func:`repro.core.trades.net_deltas_for` over members 0 and
        2 restricted to the attacker (member 0's signer) and the front
        leg's ``mint_in`` / ``mint_out`` — the only entries criterion 4
        reads. Candidates without a front leg get zeros (masked upstream).
        Cached: ``front_present`` always equals front-leg presence (both
        derive from the same features), so one result fits every call.
        """
        if "deltas" in self._cache:
            return self._cache["deltas"]
        quote, token = [], []
        for candidate, f in enumerate(self.features):
            leg = self.first_leg(candidate, 0)
            if leg is None or not front_present[candidate]:
                quote.append(0)
                token.append(0)
                continue
            attacker = f[0].signer
            quote_mint, token_mint = leg[2], leg[3]
            totals: dict = {}
            for member in (f[0], f[2]):
                for owner, mint, value in member.deltas:
                    if owner == attacker and (
                        mint == quote_mint or mint == token_mint
                    ):
                        totals[mint] = totals.get(mint, 0) + value
            quote.append(totals.get(quote_mint, 0))
            token.append(totals.get(token_mint, 0))
        columns = num_array(quote), num_array(token)
        self._cache["deltas"] = columns
        return columns

    def landed_column(self) -> "_np.ndarray":
        """Candidate ``landed_at`` values (float column)."""
        if "landed" not in self._cache:
            self._cache["landed"] = _np.array(
                [self.block.landed_at[i] for i in self.indexes],
                dtype=_np.float64,
            )
        return self._cache["landed"]

    def needs_exact_math(self) -> bool:
        """Whether any first-leg amount exceeds the int64 fast-path bound."""
        if "exact" not in self._cache:
            self._cache["exact"] = self._scan_exact_math()
        return self._cache["exact"]

    def _scan_exact_math(self) -> bool:
        """Scan every first-leg amount against the fast-path bound."""
        for candidate in range(len(self)):
            for position in range(3):
                leg = self.first_leg(candidate, position)
                if leg is not None and (
                    abs(leg[4]) > EXACT_INT64_LIMIT
                    or abs(leg[5]) > EXACT_INT64_LIMIT
                ):
                    return True
        return False


@dataclass
class CandidateSplit:
    """A chunk's length-three candidates, partitioned before any trade.

    ``candidates`` holds the complete candidates that pass criterion 1
    (all of them when the spec skips it); ``signer_rejections`` counts
    the complete ones that fail it, and ``pending`` lists the bundle ids
    of the incomplete ones, in block (collection) order.
    """

    candidates: CandidateBlock
    signer_rejections: int
    pending: tuple[str, ...]


def split_candidates(
    block: BundleBlock,
    payloads: dict[str, TxPayload],
    candidate_indexes: Sequence[int],
    skip: frozenset[str] = frozenset(),
    intern: InternPool | None = None,
) -> CandidateSplit:
    """Partition candidates and decide criterion 1 on the signers alone.

    Matches the object worker's accounting exactly: a candidate with any
    undetailed member is pending, counted once and listed once. A complete
    candidate whose members' signers fail criterion 1 (tx 1 and tx 3
    share a signer A, tx 2 is signed by B != A) is counted and dropped,
    so its :class:`TxFeatures` are never built. With
    ``same_attacker_distinct_victim`` in ``skip``, every complete
    candidate enters the block. ``intern`` optionally threads a
    cross-chunk :class:`InternPool` into the block.
    """
    test_signers = "same_attacker_distinct_victim" not in skip
    transaction_ids = block.transaction_ids
    complete: list[int] = []
    triples: list[tuple] = []
    pending: list[str] = []
    rejected = 0
    for index in candidate_indexes:
        try:
            details = [payloads[tx] for tx in transaction_ids(index)]
        except KeyError:
            pending.append(block.bundle_ids[index])
            continue
        # Criterion 1 exactly as repro.core.criteria decides it, inline:
        # this loop runs once per candidate, most of which fail here.
        if test_signers and (
            len(details) != 3
            or details[0][0] != details[2][0]
            or details[1][0] == details[0][0]
        ):
            rejected += 1
            continue
        complete.append(index)
        triples.append(tuple(tx_features(*detail) for detail in details))
    return CandidateSplit(
        candidates=CandidateBlock(
            block=block, indexes=complete, features=triples, intern=intern
        ),
        signer_rejections=rejected,
        pending=tuple(pending),
    )
