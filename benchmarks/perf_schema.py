"""Versioned reader for the ``BENCH_*.json`` records.

:func:`load_bench_record` reads every record that carries a ``schema``
field: ``BENCH_PERF.json`` (both generations, below), ``BENCH_PAPER.json``
(``bench-paper/1``), ``BENCH_STREAM.json`` (``bench-stream/2``) and
``BENCH_SERVE.json`` (``bench-serve/1``). It refuses an unknown schema and
a record that does not name the ``cpu_count`` of the host that made it.

``bench-perf/1`` carried ``cpu_count`` only at the top level and no
engine attribution, which made cross-host trajectory comparisons
ambiguous: a 1.1x "regression" on a 1-CPU runner is noise, not signal,
and nothing in the record said which engine produced it. ``bench-perf/2``
stamps ``cpu_count`` and ``engine`` onto every record (plus optional
gate-skip annotations and stage profiles). :func:`load_bench_record`
returns either generation normalized to the current one, so trend
tooling reads one shape regardless of which commit wrote the file.
"""

from __future__ import annotations

import json
from pathlib import Path

SCHEMA_V1 = "bench-perf/1"
SCHEMA_V2 = "bench-perf/2"
CURRENT_SCHEMA = SCHEMA_V2

#: Single-record schemas, read as written.
SCHEMA_PAPER = "bench-paper/1"
SCHEMA_STREAM = "bench-stream/2"
SCHEMA_SERVE = "bench-serve/1"
KNOWN_SCHEMAS = (
    SCHEMA_V1, SCHEMA_V2, SCHEMA_PAPER, SCHEMA_STREAM, SCHEMA_SERVE
)


def _guess_engine(name: str) -> str:
    """Engine attribution for a v1 record, inferred from its name."""
    return "columnar" if "columnar" in name else "object"


def upgrade_v1(payload: dict) -> dict:
    """Normalize a ``bench-perf/1`` payload to the v2 shape in place-free
    form: the top-level ``cpu_count`` is copied onto every record and
    engines are inferred from record names (v1 predates mixed-engine
    records, so the name is authoritative)."""
    cpu_count = payload.get("cpu_count")
    records = {}
    for name, record in payload.get("records", {}).items():
        upgraded = dict(record)
        upgraded.setdefault("cpu_count", cpu_count)
        upgraded.setdefault("engine", _guess_engine(name))
        records[name] = upgraded
    return {
        "schema": SCHEMA_V2,
        "cpu_count": cpu_count,
        "records": records,
    }


def load_bench_record(source: str | Path | dict) -> dict:
    """Load any ``BENCH_*.json`` record (path or parsed dict).

    BENCH_PERF generations come back normalized to v2; the other schemas
    come back as written.

    Raises ``ValueError`` on an unknown schema or a record without an
    integer ``cpu_count``: a timing that does not say how many cores made
    it cannot be compared with another.
    """
    if isinstance(source, dict):
        payload = source
    else:
        payload = json.loads(Path(source).read_text(encoding="utf-8"))
    schema = payload.get("schema")
    if schema not in KNOWN_SCHEMAS:
        raise ValueError(
            f"unknown BENCH schema {schema!r}; this reader understands "
            + ", ".join(KNOWN_SCHEMAS)
        )
    if schema == SCHEMA_V1:
        payload = upgrade_v1(payload)
    if not isinstance(payload.get("cpu_count"), int):
        raise ValueError(f"{schema} record has no integer cpu_count")
    return payload

