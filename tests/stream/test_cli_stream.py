"""CLI coverage for ``repro campaign --stream`` and ``repro stream``."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_campaign_stream_defaults(self):
        args = build_parser().parse_args(["campaign", "--stream"])
        assert args.stream

    def test_stream_subcommand(self):
        args = build_parser().parse_args(
            ["stream", "--db", "x.db", "--windowed", "--batch-size", "7"]
        )
        assert args.db == "x.db"
        assert args.windowed
        assert args.batch_size == 7


class TestStreamCommands:
    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli-stream")
        batch_out = root / "batch-out"
        stream_out = root / "stream-out"
        assert (
            main(
                [
                    "campaign", "--small", "--days", "2", "--seed", "17",
                    "--out", str(batch_out),
                    "--archive", str(root / "batch.db"),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "campaign", "--small", "--days", "2", "--seed", "17",
                    "--out", str(stream_out), "--stream",
                    "--archive", str(root / "stream.db"),
                ]
            )
            == 0
        )
        return root

    def test_summaries_match_batch(self, outputs):
        batch = json.loads((outputs / "batch-out" / "summary.json").read_text())
        stream = json.loads(
            (outputs / "stream-out" / "summary.json").read_text()
        )
        batch.pop("elapsed_seconds")
        stream.pop("elapsed_seconds")
        assert batch == stream

    def test_attach_mode_reports_are_byte_identical(self, outputs, capsys):
        rep_a = outputs / "rep-batch.json"
        rep_b = outputs / "rep-stream.json"
        assert (
            main(
                [
                    "stream", "--db", str(outputs / "batch.db"),
                    "--report-out", str(rep_a),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "stream", "--db", str(outputs / "stream.db"),
                    "--report-out", str(rep_b),
                ]
            )
            == 0
        )
        assert rep_a.read_bytes() == rep_b.read_bytes()
        assert "sandwiches:" in capsys.readouterr().out

    def test_stream_rejects_missing_archive(self, tmp_path, capsys):
        assert main(["stream", "--db", str(tmp_path / "nope.db")]) == 2
        assert "not an archive database" in capsys.readouterr().err

    def test_stream_rejects_zero_batch_size(self, outputs, capsys):
        db = str(outputs / "batch.db")
        assert main(["stream", "--db", db, "--batch-size", "0"]) == 2
        assert "batch_bundles must be >= 1" in capsys.readouterr().err

    def test_campaign_stream_rejects_resume(self, tmp_path, capsys):
        code = main(
            [
                "campaign", "--small", "--days", "1", "--stream",
                "--resume", "--archive", str(tmp_path / "a.db"),
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "cannot resume" in capsys.readouterr().err


class TestAnalyzeIncrementalNoop:
    def test_noop_line_on_rerun(self, tmp_path, capsys):
        db = tmp_path / "arch.db"
        assert (
            main(
                [
                    "campaign", "--small", "--days", "1", "--seed", "3",
                    "--out", str(tmp_path / "o"), "--archive", str(db),
                ]
            )
            == 0
        )
        assert (
            main(["analyze", "--store", str(db), "--incremental"]) == 0
        )
        first = capsys.readouterr().out
        assert "incremental pass:" in first
        assert "no-op" not in first
        assert (
            main(["analyze", "--store", str(db), "--incremental"]) == 0
        )
        second = capsys.readouterr().out
        assert "no-op" in second
        assert "archive left untouched" in second
