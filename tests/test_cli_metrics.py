"""CLI observability surface: --metrics-out, --log-jsonl, `repro metrics`."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs.export import load_snapshot


class TestParserFlags:
    def test_campaign_metrics_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--metrics-out", "m.json", "--log-jsonl", "e.jsonl"]
        )
        assert str(args.metrics_out) == "m.json"
        assert str(args.log_jsonl) == "e.jsonl"

    def test_metrics_requires_snapshot(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["metrics"])

    def test_metrics_format_choices(self):
        args = build_parser().parse_args(["metrics", "--snapshot", "m.json"])
        assert args.format == "table"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["metrics", "--snapshot", "m.json", "--format", "xml"]
            )


class TestCampaignObservability:
    @pytest.fixture(scope="class")
    def campaign_artifacts(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cli-obs")
        code = main(
            [
                "campaign",
                "--small",
                "--days",
                "2",
                "--seed",
                "17",
                "--out",
                str(out / "data"),
                "--metrics-out",
                str(out / "metrics.json"),
                "--log-jsonl",
                str(out / "events.jsonl"),
            ]
        )
        assert code == 0
        return out

    def test_snapshot_written_with_core_series(self, campaign_artifacts):
        snapshot = load_snapshot(campaign_artifacts / "metrics.json")
        metrics = snapshot["metrics"]
        assert "collector_polls_total" in metrics
        assert "explorer_requests_total" in metrics
        assert "detector_bundles_examined_total" in metrics
        assert not [name for name in metrics if name.startswith("span_")]

    def test_report_contains_health_section(self, campaign_artifacts):
        report = (campaign_artifacts / "data" / "report.txt").read_text()
        assert "Pipeline health" in report

    def test_jsonl_events_written(self, campaign_artifacts):
        lines = (
            (campaign_artifacts / "events.jsonl").read_text().splitlines()
        )
        assert lines
        records = [json.loads(line) for line in lines]
        assert all("message" in record for record in records)
        assert any(
            record["component"].startswith("cli.") for record in records
        )

    def test_metrics_table_format(self, campaign_artifacts, capsys):
        assert (
            main(
                [
                    "metrics",
                    "--snapshot",
                    str(campaign_artifacts / "metrics.json"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.startswith("metrics:")
        assert "collector_polls_total" in out

    def test_metrics_prometheus_format(self, campaign_artifacts, capsys):
        assert (
            main(
                [
                    "metrics",
                    "--snapshot",
                    str(campaign_artifacts / "metrics.json"),
                    "--format",
                    "prometheus",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "# TYPE collector_polls_total counter" in out

    def test_metrics_json_format(self, campaign_artifacts, capsys):
        assert (
            main(
                [
                    "metrics",
                    "--snapshot",
                    str(campaign_artifacts / "metrics.json"),
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["schema"] == "repro.obs/v1"

    def test_metrics_rejects_non_snapshot(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "nope"}')
        # main() converts the ConfigError into a one-line exit-2
        # diagnostic instead of letting the traceback escape.
        code = main(["metrics", "--snapshot", str(bogus)])
        assert code == 2
        err = capsys.readouterr().err
        assert "not a metrics snapshot" in err
        assert "Traceback" not in err
