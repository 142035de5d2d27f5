"""The versioned BENCH_*.json reader (``benchmarks.perf_schema``).

Trend tooling reads BENCH records written by any commit, so the reader
must pass the current generation through, normalize ``bench-perf/1``
(top-level ``cpu_count``, no engine attribution) to the v2 record shape,
and fail loudly on a schema it does not understand or a record that does
not name its ``cpu_count``.
"""

import json
from pathlib import Path

import pytest

from benchmarks.perf_schema import (
    CURRENT_SCHEMA,
    KNOWN_SCHEMAS,
    SCHEMA_PAPER,
    SCHEMA_V1,
    SCHEMA_V2,
    load_bench_record,
    upgrade_v1,
)

V1_PAYLOAD = {
    "schema": SCHEMA_V1,
    "cpu_count": 4,
    "records": {
        "analyze_end_to_end_serial": {"bundles": 100, "seconds": 1.0},
        "analyze_end_to_end_columnar": {"bundles": 100, "seconds": 0.3},
    },
}


class TestUpgradeV1:
    def test_records_gain_cpu_count_and_engine(self):
        upgraded = upgrade_v1(V1_PAYLOAD)
        assert upgraded["schema"] == SCHEMA_V2
        serial = upgraded["records"]["analyze_end_to_end_serial"]
        columnar = upgraded["records"]["analyze_end_to_end_columnar"]
        assert serial["cpu_count"] == 4
        assert serial["engine"] == "object"
        assert columnar["engine"] == "columnar"

    def test_existing_record_fields_win(self):
        payload = {
            "schema": SCHEMA_V1,
            "cpu_count": 4,
            "records": {"x": {"cpu_count": 2, "engine": "columnar"}},
        }
        upgraded = upgrade_v1(payload)
        assert upgraded["records"]["x"]["cpu_count"] == 2
        assert upgraded["records"]["x"]["engine"] == "columnar"

    def test_original_payload_untouched(self):
        source = json.loads(json.dumps(V1_PAYLOAD))
        upgrade_v1(source)
        assert "engine" not in source["records"]["analyze_end_to_end_serial"]


class TestLoadBenchPerf:
    def test_v2_payload_passes_through(self):
        payload = {
            "schema": SCHEMA_V2,
            "cpu_count": 1,
            "records": {"r": {"engine": "object", "cpu_count": 1}},
        }
        assert load_bench_record(payload) is payload

    def test_v1_payload_is_upgraded(self):
        loaded = load_bench_record(V1_PAYLOAD)
        assert loaded["schema"] == SCHEMA_V2
        assert all(
            "engine" in record and "cpu_count" in record
            for record in loaded["records"].values()
        )

    def test_loads_from_a_path(self, tmp_path):
        path = tmp_path / "BENCH_PERF.json"
        path.write_text(json.dumps(V1_PAYLOAD), encoding="utf-8")
        loaded = load_bench_record(path)
        assert loaded["schema"] == CURRENT_SCHEMA

    def test_unknown_schema_raises(self):
        with pytest.raises(ValueError, match="unknown BENCH schema"):
            load_bench_record(
                {"schema": "bench-perf/99", "cpu_count": 2, "records": {}}
            )


OUTPUT_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "output"


def _checked_in_records() -> list[Path]:
    return [
        path
        for path in sorted(OUTPUT_DIR.glob("BENCH_*.json"))
        if "schema" in json.loads(path.read_text(encoding="utf-8"))
    ]


class TestLoadBenchRecord:
    def test_every_checked_in_record_loads(self):
        paths = _checked_in_records()
        assert {p.name for p in paths} >= {
            "BENCH_PAPER.json",
            "BENCH_PERF.json",
            "BENCH_SERVE.json",
            "BENCH_STREAM.json",
        }
        for path in paths:
            record = load_bench_record(path)
            assert record["schema"] in KNOWN_SCHEMAS
            assert isinstance(record["cpu_count"], int)

    def test_missing_cpu_count_raises(self):
        with pytest.raises(ValueError, match="cpu_count"):
            load_bench_record({"schema": SCHEMA_PAPER, "runs": []})
