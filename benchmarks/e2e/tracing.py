"""Per-layer wall-clock tracing, installed from outside the program.

The tracer wraps public functions and methods of ``repro`` at the module
or class where they live, and records, per layer, the *self* time of each
call: its duration minus the time spent in nested traced calls. Nothing
under ``src/`` is edited; wrappers are installed for one run and removed
when it ends.

Spans are kept per thread, because the analysis engine's prefetcher runs
archive loads on a background thread while the main thread computes. Layer
times are therefore busy time, and their sum can exceed wall time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: Layers every workload reports, in output order.
LAYERS = ("source", "archive_write", "archive_read", "detect", "report")


class Tracer:
    """Self-time accounting for wrapped calls, switched on and off per op."""

    def __init__(self) -> None:
        self.active = False
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # --- span accounting ---------------------------------------------------

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> float:
        self._stack().append(0.0)
        return time.perf_counter()

    def _exit(self, layer: str, started: float) -> None:
        elapsed = time.perf_counter() - started
        stack = self._stack()
        nested = stack.pop()
        if stack:
            stack[-1] += elapsed
        with self._lock:
            self.seconds[layer] += elapsed - nested

    def count(self, name: str, amount: int) -> None:
        """Add ``amount`` to a work counter (only while active)."""
        if self.active:
            with self._lock:
                self.counts[name] += amount

    # --- wrapping ----------------------------------------------------------

    def _wrapper(
        self,
        original: Callable,
        layer: str,
        counter: tuple[str, Callable[[Any], int]] | None,
    ) -> Callable:
        tracer = self
        if inspect.isgeneratorfunction(original):
            # Time each step: the streaming campaign resumes the simulation
            # generator once per block, with other coroutines in between.
            @functools.wraps(original)
            def generator(*args, **kwargs):
                steps = original(*args, **kwargs)
                while True:
                    started = tracer._enter() if tracer.active else None
                    try:
                        item = next(steps)
                    except StopIteration:
                        return
                    finally:
                        if started is not None:
                            tracer._exit(layer, started)
                    yield item

            return generator

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            started = tracer._enter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(layer, started)
            if counter is not None:
                count_name, amount = counter
                tracer.count(count_name, amount(result))
            return result

        return wrapper

    def wrap(
        self,
        owner: Any,
        name: str,
        layer: str,
        counter: tuple[str, Callable[[Any], int]] | None = None,
    ) -> None:
        """Trace ``owner.name`` (a class method or module function).

        A module-level function is also replaced wherever another ``repro``
        module imported it by name, so ``from x import f`` call sites are
        traced too. ``counter`` is ``(count_name, amount)``: each call adds
        ``amount(result)`` to that count.
        """
        original = (
            owner.__dict__[name] if isinstance(owner, type)
            else getattr(owner, name)
        )
        wrapper = self._wrapper(original, layer, counter)
        if isinstance(owner, type):
            self._patch(owner, name, original, wrapper)
            return
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, original, wrapper)

    def wrap_public(self, cls: type, layer: str) -> None:
        """Trace every public method defined on ``cls`` itself."""
        for name, value in list(vars(cls).items()):
            if not name.startswith("_") and inspect.isfunction(value):
                self.wrap(cls, name, layer)

    def _patch(self, owner: Any, name: str, original: Any, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def remove(self) -> None:
        """Restore every wrapped attribute (idempotent)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def install(tracer: Tracer) -> None:
    """Wrap the program's layer entry points, one layer each.

    The list is the same for every workload; a workload simply never calls
    some of them. Layers:

    - ``source``: producing bundles — the simulation's block loop, the
      explorer and collector it drives, and the synthetic generator.
    - ``archive_write``: every archive insert, flush and checkpoint.
    - ``archive_read``: every archive query, chunk load and watermark read.
    - ``detect``: detection, quantification and classification.
    - ``report``: merging chunk results and building, rendering or
      serialising reports.
    """
    from repro.analysis import report as analysis_report
    from repro.archive.database import ArchiveDatabase
    from repro.archive.incremental import IncrementalAnalyzer
    from repro.archive.query import ArchiveQuery
    from repro.archive.store import ArchiveBundleStore
    from repro.collector.detail_fetcher import TxDetailFetcher
    from repro.collector.poller import BundlePoller
    from repro.conformance import canon, scenarios
    from repro.core import aggregate
    from repro.core.pipeline import AnalysisPipeline
    from repro.parallel import merge, worker
    from repro.parallel.engine import ParallelAnalysisEngine
    from repro.simulation.engine import SimulationEngine
    from repro.stream.deltas import IncrementalReportBuilder
    from repro.stream.detector import StreamingDetector

    for owner, name in (
        (SimulationEngine, "iter_day_blocks"),
        (SimulationEngine, "finish"),
        (BundlePoller, "poll_once"),
        (TxDetailFetcher, "fetch_once"),
        (scenarios, "generate_rows"),
    ):
        tracer.wrap(owner, name, "source")

    for name in ("add_bundles", "add_details", "save_checkpoint"):
        tracer.wrap(ArchiveBundleStore, name, "archive_write")
    for name in ("flush", "record_sandwiches", "record_defensive"):
        tracer.wrap(
            ArchiveBundleStore,
            name,
            "archive_write",
            counter=("archive_rows_written", int),
        )

    tracer.wrap_public(ArchiveQuery, "archive_read")
    tracer.wrap(ArchiveDatabase, "max_seq", "archive_read")
    tracer.wrap(IncrementalAnalyzer, "load_state", "archive_read")
    tracer.wrap(worker, "load_task", "archive_read")

    tracer.wrap(
        worker, "compute_task", "detect", counter=("chunks", lambda _: 1)
    )
    tracer.wrap(AnalysisPipeline, "analyze_store", "detect")
    tracer.wrap(IncrementalAnalyzer, "analyze", "detect")
    tracer.wrap(StreamingDetector, "ingest", "detect")
    tracer.wrap(StreamingDetector, "finalize", "detect")

    tracer.wrap(merge, "merge_outcomes", "report")
    tracer.wrap(aggregate, "headline_stats", "report")
    tracer.wrap(aggregate, "sandwiches_per_day", "report")
    tracer.wrap(ParallelAnalysisEngine, "build_report", "report")
    tracer.wrap(IncrementalReportBuilder, "apply", "report")
    tracer.wrap(IncrementalReportBuilder, "build", "report")
    tracer.wrap(analysis_report, "render_campaign_report", "report")
    tracer.wrap(canon, "canonical_json_bytes", "report")
