"""The defensive report's per-day counts on every execution path.

The report carries Figure 2's defensive series as per-date counts instead
of the classified bundles, so every path must count exactly what
:func:`~repro.utils.simtime.unix_to_date` of each defensive bundle's
landing time says — serial, sharded over two processes, incremental,
streamed and columnar alike, including bundles landing on midnight.
"""

import pytest

from repro.columnar import columnar_available
from repro.constants import DEFENSIVE_TIP_THRESHOLD_LAMPORTS
from repro.conformance.oracle import PipelineConfig, run_config
from repro.conformance.scenarios import CORPUS_SCENARIOS, generate_rows
from repro.explorer.models import BundleRecord
from repro.utils.simtime import iso_to_unix, unix_to_date

PATHS = [
    PipelineConfig(name="serial", mode="serial"),
    PipelineConfig(name="jobs-2", mode="parallel", jobs=2, chunk_size=32),
    PipelineConfig(name="incremental", mode="incremental"),
    PipelineConfig(name="stream", mode="stream", chunk_size=32),
]
if columnar_available():
    PATHS.append(
        PipelineConfig(name="columnar", mode="columnar", chunk_size=32)
    )


def recount(rows) -> dict[str, int]:
    """Defensive bundles per date, counted from the bundle records."""
    counts: dict[str, int] = {}
    for bundle, _details in rows:
        if (
            bundle.num_transactions == 1
            and bundle.tip_lamports <= DEFENSIVE_TIP_THRESHOLD_LAMPORTS
        ):
            date = unix_to_date(bundle.landed_at)
            counts[date] = counts.get(date, 0) + 1
    return dict(sorted(counts.items()))


def assert_every_path_recounts(rows, workdir) -> None:
    expected = recount(rows)
    for config in PATHS:
        defensive = run_config(rows, config, workdir).defensive
        assert defensive.defensive_per_day() == expected, config.name
        assert sum(expected.values()) == len(defensive.defensive_ids)
        ids = defensive.defensive_ids + defensive.priority_ids
        assert all(type(bundle_id) is str for bundle_id in ids)


@pytest.mark.parametrize(
    "scenario", CORPUS_SCENARIOS, ids=lambda scenario: scenario.name
)
def test_golden_corpus_per_day_counts(scenario, tmp_path):
    assert_every_path_recounts(generate_rows(scenario), tmp_path)


def test_midnight_landings_per_day_counts(tmp_path):
    midnight = iso_to_unix("2025-02-10T00:00:00+00:00")
    offsets = (-86_400.0, -1.0, -1e-6, -4e-7, 0.0, 1e-6, 0.5, 86_399.999_999)
    rows = [
        (
            BundleRecord(
                bundle_id=f"single-{index}",
                slot=1_000 + index,
                landed_at=midnight + offset,
                tip_lamports=(
                    5_000 if index % 3 else DEFENSIVE_TIP_THRESHOLD_LAMPORTS
                ),
                transaction_ids=(f"tx-{index}",),
            ),
            [],
        )
        for index, offset in enumerate(offsets)
    ]
    rows.append(
        (
            BundleRecord(
                bundle_id="priority",
                slot=2_000,
                landed_at=midnight,
                tip_lamports=DEFENSIVE_TIP_THRESHOLD_LAMPORTS + 1,
                transaction_ids=("tx-priority",),
            ),
            [],
        )
    )
    # 0.4 µs before midnight rounds onto it; 1 µs before does not.
    assert recount(rows) == {"2025-02-09": 3, "2025-02-10": 5}
    assert_every_path_recounts(rows, tmp_path)
