"""The message the streaming fold consumes.

A producer (the live campaign's collector tap, or an archive replay)
yields :class:`StreamBatch` messages: the genuinely-new bundles and
transaction details one collection step landed, in insertion order. The
detector turns each batch into a :class:`~repro.stream.deltas.ReportDelta`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.explorer.models import BundleRecord, TransactionRecord


@dataclass(frozen=True)
class StreamBatch:
    """One publish step's worth of freshly collected records.

    Records appear exactly once across the lifetime of a stream (the
    store's dedup runs before the tap fires) and in store insertion
    order — the order every batch-path analysis iterates, which is what
    the byte-identity contract rests on.
    """

    bundles: tuple[BundleRecord, ...] = field(default_factory=tuple)
    details: tuple[TransactionRecord, ...] = field(default_factory=tuple)
