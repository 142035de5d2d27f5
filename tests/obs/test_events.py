"""Structured event log tests: records, sinks, severities."""

import io
import json

from repro.obs.events import (
    ConsoleSink,
    EventLog,
    JsonlSink,
    MemorySink,
    Severity,
)


class TestEventLog:
    def test_emit_builds_record(self):
        log = EventLog()
        event = log.info("collector", "poll ok", returned=12)
        assert event.severity is Severity.INFO
        assert event.component == "collector"
        assert event.fields == {"returned": 12}

    def test_fan_out_to_all_sinks(self):
        first, second = MemorySink(), MemorySink()
        log = EventLog(sinks=[first, second])
        log.info("c", "watch out")
        assert first.messages() == ["watch out"]
        assert second.messages() == ["watch out"]


class TestConsoleSink:
    def test_writes_bare_message(self):
        stream = io.StringIO()
        log = EventLog(sinks=[ConsoleSink(stream=stream)])
        log.info("cli.campaign", "running 5-day campaign...", days=5)
        # Byte-identical to the print() it replaced: no severity prefix,
        # no component, no timestamp.
        assert stream.getvalue() == "running 5-day campaign...\n"


class TestJsonlSink:
    def test_appends_json_records(self, tmp_path):
        path = tmp_path / "logs" / "events.jsonl"
        sink = JsonlSink(path)
        log = EventLog(sinks=[sink])
        log.info("collector", "poll ok", returned=3)
        log.error("collector", "poll failed")
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {
            "severity": "INFO",
            "component": "collector",
            "message": "poll ok",
            "fields": {"returned": 3},
        }
        assert json.loads(lines[1])["severity"] == "ERROR"

    def test_fields_omitted_when_empty(self):
        log = EventLog()
        record = log.info("c", "m").to_json()
        assert "fields" not in record
        assert "time" not in record
