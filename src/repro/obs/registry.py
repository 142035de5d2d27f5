"""The metrics registry: counters, gauges, and fixed-bucket histograms.

Everything the pipeline records flows through a :class:`MetricsRegistry`.
Two properties matter for a measurement reproduction:

- **Determinism** — metric *values* that feed reports are derived from the
  injectable sim-time clock (see :mod:`repro.utils.simtime`), never the
  ambient wall clock, so replays of the same seed produce identical
  numbers. The wall-clock series that exist (archive query, API request
  and selftest check latencies) are excluded from report rendering by
  construction.
- **Passivity** — recording a metric never draws randomness, advances the
  clock, or raises on the hot path, so instrumented and uninstrumented
  runs produce byte-identical analysis output.

A :class:`NullRegistry` (shared instance :data:`NULL_REGISTRY`) implements
the same surface as no-ops, letting call sites instrument unconditionally
while benchmarks measure the truly-disabled baseline.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator

from repro.errors import ConfigError

#: Default histogram buckets, in seconds: from sub-millisecond local work
#: up to the five-minute backoff cap.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
    300.0,
)

#: Snapshot schema identifier, bumped on incompatible layout changes.
SNAPSHOT_SCHEMA = "repro.obs/v1"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelKey = tuple[tuple[str, str], ...]


# Label names seen and validated once; the hot path skips the regex for
# names already known good (the name universe is small and static).
_VALID_LABEL_NAMES: set[str] = set()


def _label_key(labels: dict[str, str]) -> LabelKey:
    if not labels:
        return ()
    for name in labels:
        if name not in _VALID_LABEL_NAMES:
            if not _LABEL_RE.match(name):
                raise ConfigError(f"invalid label name {name!r}")
            _VALID_LABEL_NAMES.add(name)
    if len(labels) == 1:
        ((name, value),) = labels.items()
        return ((name, str(value)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Base class for one named metric family (all label combinations)."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ConfigError(f"invalid metric name {name!r}")
        self.name = name
        self.help_text = help_text
        self._series: dict[LabelKey, object] = {}

    def _new_series(self) -> object:
        raise NotImplementedError

    def _get(self, labels: dict[str, str]) -> object:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._new_series()
            self._series[key] = series
        return series

    def series(self) -> Iterator[tuple[LabelKey, object]]:
        """Iterate ``(label_key, state)`` pairs in deterministic order."""
        return iter(sorted(self._series.items()))

    def snapshot_series(self) -> list[dict]:
        """JSON-serializable view of every series of this family."""
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing count (requests served, polls failed...)."""

    kind = "counter"

    def _new_series(self) -> float:
        return 0.0

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (default 1) to the series selected by ``labels``.

        Raises:
            ConfigError: if ``amount`` is negative — counters only go up.
        """
        if amount < 0:
            raise ConfigError(f"counter increment must be >= 0, got {amount}")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current value of the selected series (0 if never incremented)."""
        return float(self._series.get(_label_key(labels), 0.0))

    def snapshot_series(self) -> list[dict]:
        """JSON-serializable view: one ``{labels, value}`` entry per series."""
        return [
            {"labels": dict(key), "value": value}
            for key, value in self.series()
        ]


class Gauge(Metric):
    """A value that can go up and down (overlap ratio, queue depth...)."""

    kind = "gauge"

    def _new_series(self) -> float:
        return 0.0

    def set(self, value: float, **labels: str) -> None:
        """Set the selected series to ``value``."""
        self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (may be negative) to the selected series."""
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current value of the selected series (0 if never set)."""
        return float(self._series.get(_label_key(labels), 0.0))

    def snapshot_series(self) -> list[dict]:
        """JSON-serializable view: one ``{labels, value}`` entry per series."""
        return [
            {"labels": dict(key), "value": value}
            for key, value in self.series()
        ]


class _HistogramState:
    """Bucket counts, sum, and count for one histogram series."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, num_buckets: int) -> None:
        self.bucket_counts = [0] * (num_buckets + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0


class Histogram(Metric):
    """A fixed-bucket distribution (durations, batch sizes, delays)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text)
        if not buckets:
            raise ConfigError("histogram needs at least one bucket bound")
        if list(buckets) != sorted(buckets):
            raise ConfigError(f"histogram buckets must ascend: {buckets}")
        self.buckets = tuple(float(b) for b in buckets)

    def _new_series(self) -> _HistogramState:
        return _HistogramState(len(self.buckets))

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation into the selected series."""
        state = self._get(labels)
        assert isinstance(state, _HistogramState)
        state.sum += value
        state.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                state.bucket_counts[index] += 1
                return
        state.bucket_counts[-1] += 1

    def count(self, **labels: str) -> int:
        """Number of observations in the selected series."""
        state = self._series.get(_label_key(labels))
        return state.count if isinstance(state, _HistogramState) else 0

    def total(self, **labels: str) -> float:
        """Sum of observations in the selected series."""
        state = self._series.get(_label_key(labels))
        return state.sum if isinstance(state, _HistogramState) else 0.0

    def snapshot_series(self) -> list[dict]:
        """JSON view: cumulative buckets plus sum/count per series."""
        entries = []
        for key, state in self.series():
            assert isinstance(state, _HistogramState)
            cumulative: dict[str, int] = {}
            running = 0
            for bound, bucket in zip(self.buckets, state.bucket_counts):
                running += bucket
                cumulative[repr(bound)] = running
            cumulative["+Inf"] = state.count
            entries.append(
                {
                    "labels": dict(key),
                    "buckets": cumulative,
                    "sum": state.sum,
                    "count": state.count,
                }
            )
        return entries


class MetricsRegistry:
    """Creates and holds metric families; renders deterministic snapshots.

    ``time_fn`` is the clock the snapshot's ``captured_at`` reads (the
    report's ``checkpoint_age_s`` is measured from it). Wire the
    campaign's :class:`~repro.utils.simtime.SimClock` here (the
    measurement campaign does this automatically) so that timestamp is
    simulated, reproducible time.
    """

    def __init__(self, time_fn: Callable[[], float] | None = None) -> None:
        self._time_fn: Callable[[], float] = time_fn or (lambda: 0.0)
        self._metrics: dict[str, Metric] = {}

    @property
    def enabled(self) -> bool:
        """Whether this registry actually records (False for the null one)."""
        return True

    def set_time_fn(self, time_fn: Callable[[], float]) -> None:
        """Rebind the clock (used once the campaign's SimClock exists)."""
        self._time_fn = time_fn

    def now(self) -> float:
        """Current time according to the registry's injected clock."""
        return self._time_fn()

    def _register(self, metric: Metric) -> Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric):
                raise ConfigError(
                    f"metric {metric.name!r} already registered as "
                    f"{existing.kind}, not {metric.kind}"
                )
            return existing
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get or create the counter family ``name``."""
        metric = self._register(Counter(name, help_text))
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Get or create the gauge family ``name``."""
        metric = self._register(Gauge(name, help_text))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram family ``name``."""
        metric = self._register(Histogram(name, help_text, buckets))
        assert isinstance(metric, Histogram)
        return metric

    def get(self, name: str) -> Metric | None:
        """Look up a registered family by name."""
        return self._metrics.get(name)

    def snapshot(self) -> dict:
        """A JSON-serializable, deterministically ordered snapshot.

        The layout is ``{schema, captured_at, metrics: {name: {type, help,
        series: [...]}}}``; ``captured_at`` comes from the injected clock,
        so same-seed campaigns snapshot identically.
        """
        return {
            "schema": SNAPSHOT_SCHEMA,
            "captured_at": self.now(),
            "metrics": {
                name: {
                    "type": metric.kind,
                    "help": metric.help_text,
                    "series": metric.snapshot_series(),
                }
                for name, metric in sorted(self._metrics.items())
            },
        }


class _NullCounter:
    """Counter stand-in whose operations do nothing."""

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Discard the increment."""

    def value(self, **labels: str) -> float:
        """Always 0."""
        return 0.0


class _NullGauge:
    """Gauge stand-in whose operations do nothing."""

    def set(self, value: float, **labels: str) -> None:
        """Discard the value."""

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Discard the increment."""

    def value(self, **labels: str) -> float:
        """Always 0."""
        return 0.0


class _NullHistogram:
    """Histogram stand-in whose operations do nothing."""

    def observe(self, value: float, **labels: str) -> None:
        """Discard the observation."""

    def count(self, **labels: str) -> int:
        """Always 0."""
        return 0

    def total(self, **labels: str) -> float:
        """Always 0."""
        return 0.0


class NullRegistry(MetricsRegistry):
    """A registry that records nothing — the disabled-observability mode.

    Shares the :class:`MetricsRegistry` surface so instrumented code never
    branches; every handle it returns is an inert singleton.
    """

    _COUNTER = _NullCounter()
    _GAUGE = _NullGauge()
    _HISTOGRAM = _NullHistogram()

    def __init__(self) -> None:
        super().__init__()

    @property
    def enabled(self) -> bool:
        """Always False: nothing is recorded."""
        return False

    def set_time_fn(self, time_fn: Callable[[], float]) -> None:
        """Ignore the clock; the null registry never reads time."""

    def counter(self, name: str, help_text: str = "") -> Counter:
        """The shared inert counter."""
        return self._COUNTER  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """The shared inert gauge."""
        return self._GAUGE  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """The shared inert histogram."""
        return self._HISTOGRAM  # type: ignore[return-value]

    def snapshot(self) -> dict:
        """An empty snapshot (schema header, no metric families)."""
        return {"schema": SNAPSHOT_SCHEMA, "captured_at": 0.0, "metrics": {}}


#: Shared inert registry; the default for instrumented components.
NULL_REGISTRY = NullRegistry()
