"""Structured event logging for the measurement pipeline.

Replaces bare ``print(...)`` calls with typed records — severity, component,
message, and structured fields — fanned out to pluggable sinks:

- :class:`ConsoleSink` writes the bare message to a stream, so CLI output
  stays byte-identical to the historical prints;
- :class:`JsonlSink` appends one JSON object per event for machines;
- :class:`MemorySink` buffers events for tests and in-process inspection.

Every event reaches every sink. A record carries no timestamp, so the
console rendering and the JSONL records of a seeded run carry no
nondeterministic text beyond what the fields themselves hold.
"""

from __future__ import annotations

import enum
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable


class Severity(enum.IntEnum):
    """Event severity; a JSONL record names it."""

    INFO = 20
    ERROR = 40


@dataclass(frozen=True)
class Event:
    """One structured log record."""

    severity: Severity
    component: str
    message: str
    fields: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """JSON-serializable form (severity as its name)."""
        record = {
            "severity": self.severity.name,
            "component": self.component,
            "message": self.message,
        }
        if self.fields:
            record["fields"] = self.fields
        return record


class ConsoleSink:
    """Plain-text sink: writes just the message, like the prints it replaced."""

    def __init__(self, stream: IO[str] | None = None) -> None:
        self._stream = stream

    def write(self, event: Event) -> None:
        """Print the event's message to the configured stream."""
        stream = self._stream if self._stream is not None else sys.stderr
        print(event.message, file=stream)


class JsonlSink:
    """Appends one JSON object per event to a file."""

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] | None = None

    def write(self, event: Event) -> None:
        """Serialize and append the event (opening the file lazily)."""
        if self._handle is None:
            self._handle = self._path.open("a", encoding="utf-8")
        self._handle.write(json.dumps(event.to_json(), sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the underlying file, if it was opened."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class MemorySink:
    """Buffers events in a list (tests, in-process dashboards)."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def write(self, event: Event) -> None:
        """Append the event to the buffer."""
        self.events.append(event)

    def messages(self) -> list[str]:
        """Just the message strings, in arrival order."""
        return [event.message for event in self.events]


class EventLog:
    """Routes structured events to every attached sink.

    Sinks need one method, ``write(event)``; a failing sink propagates (the
    pipeline should notice a broken log destination, not silently drop
    telemetry).
    """

    def __init__(self, sinks: Iterable = ()) -> None:
        self._sinks: list = list(sinks)

    def add_sink(self, sink) -> None:
        """Attach another sink."""
        self._sinks.append(sink)

    def emit(
        self,
        severity: Severity,
        component: str,
        message: str,
        **fields,
    ) -> Event:
        """Build one event and hand it to every sink; returns the record."""
        event = Event(
            severity=severity,
            component=component,
            message=message,
            fields=fields,
        )
        for sink in self._sinks:
            sink.write(event)
        return event

    def info(self, component: str, message: str, **fields) -> Event:
        """Emit at INFO."""
        return self.emit(Severity.INFO, component, message, **fields)

    def error(self, component: str, message: str, **fields) -> Event:
        """Emit at ERROR."""
        return self.emit(Severity.ERROR, component, message, **fields)
