"""Batch slicing never leaks into streamed results.

However collected records are sliced into batches — one bundle per
batch, or any hypothesis-drawn interleaving of bundle and detail chunks
— the tap-fed store and the folded report come out the same as a
one-shot store analyzed serially.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.store import BundleStore
from repro.conformance.scenarios import (
    build_store,
    generate_rows,
    selftest_scenario,
)
from repro.core.pipeline import AnalysisPipeline
from repro.parallel.merge import report_bytes
from repro.stream import (
    CollectorTap,
    IncrementalReportBuilder,
    StreamBatch,
    StreamingDetector,
    fold_batches,
)

ROWS = generate_rows(selftest_scenario(313, bundles=80))


def _fold(batches):
    detector = StreamingDetector()
    builder = IncrementalReportBuilder(spec=detector.spec)
    fold_batches(batches, detector, builder)
    return builder.build()


def test_one_bundle_per_batch_matches_serial():
    """One bundle (and its details) per batch: the finest slicing a live
    campaign can produce, identical output."""
    serial = AnalysisPipeline().analyze_store(build_store(ROWS))
    streamed = _fold(
        StreamBatch(bundles=(bundle,), details=tuple(details))
        for bundle, details in ROWS
    )
    assert report_bytes(streamed) == report_bytes(serial)


def _chunked(records, sizes):
    """Split ``records`` into chunks following the drawn ``sizes`` cycle."""
    chunks, index, cursor = [], 0, 0
    while cursor < len(records):
        size = sizes[index % len(sizes)]
        chunks.append(records[cursor : cursor + size])
        cursor += size
        index += 1
    return chunks


@settings(max_examples=25, deadline=None)
@given(
    bundle_sizes=st.lists(
        st.integers(min_value=1, max_value=17), min_size=1, max_size=5
    ),
    detail_sizes=st.lists(
        st.integers(min_value=1, max_value=29), min_size=1, max_size=5
    ),
    details_first=st.booleans(),
)
def test_any_interleaving_yields_same_store_and_report(
    bundle_sizes, detail_sizes, details_first
):
    """Batch-slicing invariance.

    However the records are grouped into batches, and whichever side of
    each (bundles, details) pair is published first, the tap-fed store
    and the streamed report must come out the same.
    """
    bundles = [bundle for bundle, _ in ROWS]
    details = [record for _, records in ROWS for record in records]

    # Reference: one-shot store + serial analysis.
    reference = BundleStore()
    reference.add_bundles(bundles)
    reference.add_details(details)
    serial = AnalysisPipeline().analyze_store(reference)

    # Rebuild a store through the tap with the drawn chunking, checking
    # the tap reports each record exactly once, in insertion order.
    store = BundleStore()
    tap = CollectorTap()
    store.attach_tap(tap)
    bundle_chunks = _chunked(bundles, bundle_sizes)
    detail_chunks = _chunked(details, detail_sizes)
    ordered = (
        detail_chunks + bundle_chunks
        if details_first
        else bundle_chunks + detail_chunks
    )
    batches = []
    for chunk in ordered:
        if chunk and hasattr(chunk[0], "bundle_id"):
            store.add_bundles(list(chunk))
        else:
            store.add_details(list(chunk))
        batch = tap.take()
        if batch is not None:
            batches.append(batch)
    tapped_bundles = [b for batch in batches for b in batch.bundles]
    tapped_details = [d for batch in batches for d in batch.details]
    assert tapped_bundles == bundles
    assert tapped_details == details

    # Stream those exact batches through the fold.
    assert report_bytes(_fold(batches)) == report_bytes(serial)
