"""repro.obs — observability for the measurement pipeline.

The paper's four-month collection campaign survived rate limits, endpoint
instability, and coverage gaps because its operators could see what the
scraper was doing. This package gives the reproduction the same eyes:

- :mod:`repro.obs.registry` — counters, gauges, fixed-bucket histograms,
  and the :class:`MetricsRegistry` that holds them (plus the inert
  :data:`NULL_REGISTRY` for disabled mode);
- :mod:`repro.obs.spans` — ``with registry.span("poll.fetch"):`` timing;
- :mod:`repro.obs.events` — structured event logging with console, JSONL,
  and in-memory sinks;
- :mod:`repro.obs.export` — Prometheus text, JSON snapshots, summary
  tables, and the campaign report's "Pipeline health" section;
- :mod:`repro.obs.profile` — the wall-clock stage profile behind
  ``repro analyze --profile`` (load/intern/detect/quantify/merge).

Determinism contract: recording is passive (no RNG draws, no clock
advances) and every value that feeds a report derives from the injected
sim-time clock — so instrumented and uninstrumented replays of the same
seed produce byte-identical analysis output. The wall-clock profile is
the one reader of the real clock, and it never feeds a deterministic
output: its seconds go to the ``--profile`` table and benchmark
records, never into ``report.txt``, a golden fixture or a sim-time
metric.
"""

from repro.obs.events import (
    ConsoleSink,
    Event,
    EventLog,
    JsonlSink,
    MemorySink,
    Severity,
)
from repro.obs.export import (
    load_snapshot,
    render_pipeline_health,
    render_prometheus,
    render_summary,
    save_snapshot,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.spans import SpanHandle, span_context

__all__ = [
    "ConsoleSink",
    "Counter",
    "DEFAULT_BUCKETS",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "Severity",
    "SpanHandle",
    "load_snapshot",
    "render_pipeline_health",
    "render_prometheus",
    "render_summary",
    "save_snapshot",
    "span_context",
]
