"""CLI tests: every command exercised through main()."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        # --seed stays None so pack runs can tell "use the pack's base
        # seed" from an explicit override; plain campaigns fall back to
        # 2025 inside _scenario_from_args.
        assert args.seed is None
        assert args.scenario is None
        assert not args.small

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestTable1Command:
    def test_prints_table(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "ATTACKER" in out

    def test_custom_victim(self, capsys):
        assert main(["table1", "--victim-sol", "40", "--slippage-bps", "300"]) == 0
        assert "Table 1" in capsys.readouterr().out


class TestCampaignAndAnalyze:
    @pytest.fixture(scope="class")
    def campaign_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cli-campaign")
        code = main(
            [
                "campaign",
                "--small",
                "--days",
                "2",
                "--seed",
                "17",
                "--out",
                str(out),
                "--archive",
                str(out / "archive.db"),
            ]
        )
        assert code == 0
        return out

    def test_artifacts_written(self, campaign_dir):
        assert (campaign_dir / "bundles.jsonl").exists()
        assert (campaign_dir / "transactions.jsonl").exists()
        assert (campaign_dir / "report.txt").exists()
        summary = json.loads((campaign_dir / "summary.json").read_text())
        assert summary["collection"]["bundles_collected"] > 0

    def test_report_contains_figures(self, campaign_dir):
        report = (campaign_dir / "report.txt").read_text()
        assert "Figure 1" in report and "Headline" in report

    def test_analyze_round_trip(self, campaign_dir, capsys):
        archive = campaign_dir / "archive.db"
        assert main(["analyze", "--store", str(archive)]) == 0
        out = capsys.readouterr().out
        assert "bundles:" in out
        assert "defensive bundles:" in out

    def test_analyze_custom_threshold(self, campaign_dir, capsys):
        assert (
            main(
                [
                    "analyze",
                    "--store",
                    str(campaign_dir / "archive.db"),
                    "--threshold",
                    "10000",
                ]
            )
            == 0
        )
        assert "threshold 10,000" in capsys.readouterr().out


class TestScrapeAgainstLiveServer:
    def test_scrape_round_trip(self, tmp_path, capsys):
        from repro.explorer.http_server import explorer_handler
        from repro.explorer.service import ExplorerConfig, ExplorerService
        from repro.serve.httpcommon import HttpServer
        from repro.simulation import SimulationEngine
        from tests.conftest import tiny_scenario

        world = SimulationEngine(tiny_scenario(seed=51)).run()
        service = ExplorerService(
            world.block_engine,
            world.ledger,
            world.clock,
            config=ExplorerConfig(
                requests_per_second=1000.0, burst_capacity=1000.0
            ),
        )
        out = tmp_path / "scraped"
        with HttpServer() as server:
            server.start(explorer_handler(service))
            code = main(
                [
                    "scrape",
                    "--port",
                    str(server.port),
                    "--polls",
                    "3",
                    "--window",
                    "10000",
                    "--out",
                    str(out),
                ]
            )
        assert code == 0
        assert (out / "bundles.jsonl").exists()
        assert (out / "coverage.jsonl").exists()

    def test_scrape_no_server_fails_cleanly(self, tmp_path, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = main(
            ["scrape", "--port", str(port), "--out", str(tmp_path / "x")]
        )
        assert code == 1
