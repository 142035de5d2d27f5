"""The hard contract: streaming output is byte-identical to batch output.

Attach-mode streaming over every golden-corpus scenario — standard and
windowed detector stacks, at the default and at another SOL/USD rate,
tiny and odd batch sizes — must yield the exact ``report_bytes`` the
serial pipeline produces over the same archive under the same spec.
"""

import pytest

from repro.archive.store import ArchiveBundleStore
from repro.conformance.scenarios import (
    CORPUS_SCENARIOS,
    generate_rows,
    selftest_scenario,
    write_archive,
)
from repro.core.pipeline import AnalysisPipeline
from repro.parallel.chunks import DetectorSpec
from repro.parallel.merge import report_bytes
from repro.stream import analyze_archive_stream


#: The default SOL/USD rate, and another one.
RATES = (DetectorSpec().usd_per_sol, 150.0)


def _serial_bytes(path, spec=None):
    store = ArchiveBundleStore.resume(path)
    report = AnalysisPipeline(spec).analyze_store(store)
    store.database.close()
    return report_bytes(report)


@pytest.mark.parametrize(
    "scenario", CORPUS_SCENARIOS, ids=lambda s: s.name
)
def test_stream_matches_serial_over_corpus(scenario, tmp_path):
    path = tmp_path / "corpus.db"
    write_archive(generate_rows(scenario), path)
    for rate in RATES:
        spec = DetectorSpec(usd_per_sol=rate)
        streamed = analyze_archive_stream(path, spec=spec, batch_bundles=33)
        assert report_bytes(streamed) == _serial_bytes(path, spec)


@pytest.mark.parametrize(
    "scenario", CORPUS_SCENARIOS, ids=lambda s: s.name
)
def test_stream_matches_serial_windowed(scenario, tmp_path):
    path = tmp_path / "corpus.db"
    write_archive(generate_rows(scenario), path)
    for rate in RATES:
        spec = DetectorSpec(kind="windowed", usd_per_sol=rate)
        streamed = analyze_archive_stream(path, spec=spec, batch_bundles=11)
        assert report_bytes(streamed) == _serial_bytes(path, spec)


@pytest.mark.parametrize("batch", [1, 7, 512])
def test_stream_identity_is_batching_invariant(batch, tmp_path):
    """Batch granularity must never leak into output."""
    path = tmp_path / "sized.db"
    write_archive(generate_rows(selftest_scenario(77, bundles=120)), path)
    expected = _serial_bytes(path)
    streamed = analyze_archive_stream(path, batch_bundles=batch)
    assert report_bytes(streamed) == expected


def test_stream_report_reaches_archive(tmp_path):
    """Attach-mode leaves the source archive untouched (read-only open)."""
    path = tmp_path / "ro.db"
    write_archive(generate_rows(selftest_scenario(11, bundles=60)), path)
    before = path.read_bytes()
    analyze_archive_stream(path)
    assert path.read_bytes() == before
