"""Exporters: Prometheus text, JSON snapshots, and human-readable tables.

All renderers consume the JSON snapshot layout produced by
:meth:`repro.obs.registry.MetricsRegistry.snapshot`, so a snapshot saved by
``--metrics-out`` renders identically to a live registry.

The campaign report's "Pipeline health" section is built here too. It
includes only sim-time-deterministic series, preserving the invariant
that analysis reports are byte-identical across replays of the same seed.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ConfigError
from repro.obs.registry import SNAPSHOT_SCHEMA, MetricsRegistry


def save_snapshot(source: MetricsRegistry | dict, path: str | Path) -> dict:
    """Write a snapshot (from a registry or an existing dict) as JSON.

    Returns the snapshot dict that was written.
    """
    snapshot = (
        source.snapshot() if isinstance(source, MetricsRegistry) else source
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return snapshot


def load_snapshot(path: str | Path) -> dict:
    """Read a snapshot JSON file, validating the schema header."""
    snapshot = json.loads(Path(path).read_text())
    if not isinstance(snapshot, dict) or "metrics" not in snapshot:
        raise ConfigError(f"{path} is not a metrics snapshot")
    schema = snapshot.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        raise ConfigError(
            f"unsupported snapshot schema {schema!r} "
            f"(expected {SNAPSHOT_SCHEMA!r})"
        )
    return snapshot


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{value}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def render_prometheus(snapshot: dict) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: list[str] = []
    for name, family in sorted(snapshot.get("metrics", {}).items()):
        kind = family.get("type", "untyped")
        help_text = family.get("help", "")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for entry in family.get("series", []):
            labels = entry.get("labels", {})
            if kind == "histogram":
                for bound, count in entry["buckets"].items():
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = bound
                    lines.append(
                        f"{name}_bucket{_format_labels(bucket_labels)} "
                        f"{count}"
                    )
                lines.append(
                    f"{name}_sum{_format_labels(labels)} "
                    f"{_format_value(entry['sum'])}"
                )
                lines.append(
                    f"{name}_count{_format_labels(labels)} {entry['count']}"
                )
            else:
                lines.append(
                    f"{name}{_format_labels(labels)} "
                    f"{_format_value(entry['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def render_summary(snapshot: dict) -> str:
    """Render a snapshot as an aligned human-readable table."""
    rows: list[tuple[str, str]] = []
    for name, family in sorted(snapshot.get("metrics", {}).items()):
        kind = family.get("type", "untyped")
        for entry in family.get("series", []):
            label_text = _format_labels(entry.get("labels", {}))
            if kind == "histogram":
                count = entry["count"]
                mean = entry["sum"] / count if count else 0.0
                value = f"count={count} mean={mean:.6g}"
            else:
                value = _format_value(entry["value"])
            rows.append((f"{name}{label_text}", value))
    if not rows:
        return "metrics: (empty snapshot)"
    width = max(len(key) for key, _ in rows)
    lines = [f"{key.ljust(width)}  {value}" for key, value in rows]
    header = f"metrics: {len(rows)} series"
    return "\n".join([header, *lines])


def _sum_counter(snapshot: dict, name: str, **where: str) -> float:
    family = snapshot.get("metrics", {}).get(name)
    if family is None:
        return 0.0
    total = 0.0
    for entry in family.get("series", []):
        labels = entry.get("labels", {})
        if all(labels.get(key) == value for key, value in where.items()):
            total += entry.get("value", 0.0)
    return total


def _gauge_value(snapshot: dict, name: str) -> float | None:
    family = snapshot.get("metrics", {}).get(name)
    if family is None or not family.get("series"):
        return None
    return family["series"][0].get("value")


def render_pipeline_health(snapshot: dict) -> str:
    """The campaign report's "Pipeline health" section.

    Only deterministic, sim-time-driven series appear here, so the
    rendered report stays byte-identical across replays of the same seed.
    """
    if not snapshot.get("metrics"):
        return "Pipeline health — observability disabled"
    polls_ok = _sum_counter(snapshot, "collector_polls_total", status="ok")
    polls_failed = _sum_counter(
        snapshot, "collector_polls_total", status="failed"
    )
    retries = _sum_counter(snapshot, "collector_poll_retries_total")
    dedup = _sum_counter(snapshot, "store_bundle_dedup_hits_total")
    batches_ok = _sum_counter(
        snapshot, "collector_detail_batches_total", outcome="ok"
    )
    batches_failed = _sum_counter(
        snapshot, "collector_detail_batches_total", outcome="failed"
    )
    served = _sum_counter(snapshot, "explorer_requests_total")
    limited = _sum_counter(
        snapshot, "explorer_requests_rejected_total", reason="rate_limited"
    )
    unavailable = _sum_counter(
        snapshot, "explorer_requests_rejected_total", reason="unavailable"
    )
    examined = _sum_counter(snapshot, "detector_bundles_examined_total")
    confirmed = _sum_counter(snapshot, "detector_sandwiches_total")
    defensive = _sum_counter(
        snapshot, "defensive_bundles_total", classification="defensive"
    )
    overlap = _gauge_value(snapshot, "collector_overlap_ratio")
    lines = [
        "Pipeline health",
        f"  polls               ok={polls_ok:.0f} failed={polls_failed:.0f} "
        f"retries={retries:.0f}",
        f"  store               dedup_hits={dedup:.0f}",
        f"  detail batches      ok={batches_ok:.0f} "
        f"failed={batches_failed:.0f}",
        f"  explorer requests   served={served:.0f} "
        f"rate_limited={limited:.0f} unavailable={unavailable:.0f}",
        f"  detection           examined={examined:.0f} "
        f"confirmed={confirmed:.0f} defensive={defensive:.0f}",
    ]
    if overlap is not None:
        lines.insert(
            2, f"  coverage            overlap_ratio={overlap:.4f}"
        )
    archive_rows = _sum_counter(snapshot, "archive_rows_written_total")
    if archive_rows:
        flushes = _sum_counter(snapshot, "archive_flushes_total")
        checkpoints = _sum_counter(snapshot, "archive_checkpoints_total")
        line = (
            f"  archive             rows={archive_rows:.0f} "
            f"flushes={flushes:.0f} checkpoints={checkpoints:.0f}"
        )
        last_checkpoint = _gauge_value(
            snapshot, "archive_last_checkpoint_sim_time"
        )
        if checkpoints and last_checkpoint is not None:
            age = snapshot.get("captured_at", 0.0) - last_checkpoint
            line += f" checkpoint_age_s={age:.0f}"
        lines.append(line)
    return "\n".join(lines)
