"""Vectorized evaluation of paper criteria 2-5 over candidate blocks.

Criterion 1 reads the members' signers and nothing else, so
:func:`~repro.columnar.blocks.split_candidates` decides it on the signer
strings before any candidate's features are built; a block holds only the
candidates that pass it (all of them when the spec skips it). Each of the
other four criteria becomes a boolean mask over the whole block; the
object path's short-circuit semantics are recovered by attributing every
failing candidate to its *first* failing criterion (``argmax`` over the
stacked failure masks), so per-criterion rejection tallies match a serial
:class:`~repro.core.detector.SandwichDetector` exactly. Identity checks
(mint sets, the attacked pair) compare interned int64 *code* columns —
equal values share a code by construction, so the masks are pure
primitive-dtype vector ops rather than object-array elementwise Python
calls.

Bit-exactness of criterion 3 (rate comparison) needs care: Python's
``int / int`` is correctly rounded from the exact integers, while numpy
casts int64 operands to float64 *before* dividing. For amounts at or below
:data:`~repro.columnar.blocks.EXACT_INT64_LIMIT` (2**52) the cast is exact
and both pipelines produce the same IEEE-754 quotient; beyond that bound
the block switches to object-dtype columns, whose elementwise operations
invoke Python's own arbitrary-precision arithmetic. Either way the verdict
is bit-identical to the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.columnar.blocks import CandidateBlock
from repro.core.criteria import CRITERIA

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via columnar_available
    _np = None

#: Names of the criteria a block evaluates, in the paper's order (the mask
#: stacking order): every criterion but the first.
CRITERION_NAMES = tuple(name for name, _ in CRITERIA[1:])


@dataclass
class BlockVerdicts:
    """One block's detection verdicts, ready for outcome assembly."""

    examined: int
    detected_indexes: list[int] = field(default_factory=list)
    rejections: dict[str, int] = field(default_factory=dict)


def _as_bool(mask) -> "_np.ndarray":
    """Normalize an elementwise result (possibly object dtype) to bool."""
    return _np.asarray(mask, dtype=bool)


def _guarded_divide(numerator, denominator, valid):
    """Elementwise true division with invalid lanes' denominators masked.

    Preserves dtype semantics: int64 inputs divide in float64 (numpy's
    cast), object inputs divide element-by-element in Python. ``valid``
    lanes are the only ones whose quotients are ever read.
    """
    safe = _np.where(valid, denominator, 1)
    return numerator / safe


def evaluate_block(
    cand: CandidateBlock, skip: frozenset[str] = frozenset()
) -> BlockVerdicts:
    """Apply criteria 2-5 to a complete-candidate block at once.

    Every candidate in ``cand`` has passed criterion 1 already, or the
    spec skips it (see :func:`~repro.columnar.blocks.split_candidates`).
    ``skip`` names criteria to bypass (the ablation knob) — skipped
    criteria contribute an all-pass mask, exactly like the object path's
    compiled skip set. Candidates passing all criteria but missing a first
    swap leg on any member are counted under ``no_trades`` (reachable only
    when trade-guaranteeing criteria are skipped).
    """
    count = len(cand)
    if count == 0:
        return BlockVerdicts(examined=0)

    exact = cand.needs_exact_math()
    mint_codes, mint_nonempty = cand.mint_set_code_columns()
    leg_codes = cand.leg_code_columns()
    p0, _, _, f_in, f_out = cand.leg_columns(0)
    p1, _, _, v_in, v_out = cand.leg_columns(1)
    p2 = cand.leg_columns(2)[0]
    if exact:
        f_in, f_out = f_in.astype(object), f_out.astype(object)
        v_in, v_out = v_in.astype(object), v_out.astype(object)

    ones = _np.ones(count, dtype=bool)
    masks = []

    # 2. same non-empty mint set across all three transactions
    if "same_mint_set" in skip:
        masks.append(ones)
    else:
        m0, m1, m2 = mint_codes
        nonempty = mint_nonempty[0] & mint_nonempty[1] & mint_nonempty[2]
        masks.append(nonempty & (m0 == m1) & (m1 == m2))

    # 3. the victim's realized rate exceeds the attacker's
    if "rate_increases_for_victim" in skip:
        masks.append(ones)
    else:
        (f_mint_in, f_mint_out), (v_mint_in, v_mint_out) = (
            leg_codes[0],
            leg_codes[1],
        )
        pair = (
            p0
            & p1
            & (f_mint_in == v_mint_in)
            & (f_mint_out == v_mint_out)
        )
        rates_ok = _as_bool(v_out > 0) & _as_bool(f_out > 0)
        victim_rate = _guarded_divide(v_in, v_out, _as_bool(v_out > 0))
        front_rate = _guarded_divide(f_in, f_out, _as_bool(f_out > 0))
        masks.append(pair & rates_ok & _as_bool(victim_rate > front_rate))

    # 4. the attacker nets currency across the bundle
    if "attacker_net_gain" in skip:
        masks.append(ones)
    else:
        quote_delta, token_delta = cand.attacker_delta_columns(p0)
        gain = _as_bool(quote_delta > 0) | (
            _as_bool(quote_delta == 0) & _as_bool(token_delta > 0)
        )
        masks.append(p0 & gain)

    # 5. the final transaction is not a bare validator tip
    if "not_tip_only_tail" in skip:
        masks.append(ones)
    else:
        masks.append(~cand.tip_only_tail_column())

    stacked = _np.vstack(masks)
    fails = ~stacked
    any_fail = fails.any(axis=0)
    first_fail = fails.argmax(axis=0)
    counts = _np.bincount(
        first_fail[any_fail], minlength=len(CRITERION_NAMES)
    )
    rejections: dict[str, int] = {}
    for position, name in enumerate(CRITERION_NAMES):
        if counts[position]:
            rejections[name] = int(counts[position])

    passed = ~any_fail
    trades_present = p0 & p1 & p2
    no_trades = passed & ~trades_present
    if no_trades.any():
        rejections["no_trades"] = int(no_trades.sum())
    detected = passed & trades_present
    return BlockVerdicts(
        examined=count,
        detected_indexes=[int(i) for i in _np.flatnonzero(detected)],
        rejections=rejections,
    )
