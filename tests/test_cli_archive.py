"""CLI coverage for the archive, query, and archive-aware analyze commands."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.conformance.scenarios import (
    generate_rows,
    selftest_scenario,
    write_archive,
)


@pytest.fixture(scope="class")
def archived_campaign(tmp_path_factory):
    """A small archived campaign run through the CLI once per class."""
    out = tmp_path_factory.mktemp("cli-archive")
    db = out / "archive.db"
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
            str(db),
        ]
    )
    assert code == 0
    return out, db


def run_json(capsys, argv):
    """Run a CLI command and parse its (possibly multi-line) JSON output."""
    capsys.readouterr()
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def run_lines(capsys, argv):
    """Run a CLI command and return its stdout lines."""
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out.strip().splitlines()


class TestCampaignArchive:
    def test_resume_requires_archive(self, capsys):
        assert main(["campaign", "--resume"]) == 2
        assert "--archive" in capsys.readouterr().err

    def test_campaign_has_no_jobs_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_archive_report_matches_plain_campaign(
        self, archived_campaign, tmp_path
    ):
        """An archived campaign reports what a plain one with the same
        seed reports; only its pipeline-health ``archive`` line is extra."""
        out, _db = archived_campaign
        plain = tmp_path / "plain"
        argv = ["campaign", "--small", "--days", "2", "--seed", "17"]
        assert main(argv + ["--out", str(plain)]) == 0

        def lines(path):
            return [
                line
                for line in (path / "report.txt").read_text().splitlines()
                if line.split()[:1] != ["archive"]
            ]

        assert lines(out) == lines(plain)
        archived = (out / "report.txt").read_text()
        assert "detection" in archived
        assert "\n  archive " in archived

    def test_archive_written_alongside_jsonl(self, archived_campaign, capsys):
        out, db = archived_campaign
        assert db.is_file()
        assert (out / "bundles.jsonl").is_file()
        info = run_json(capsys, ["archive", "stats", "--db", str(db)])
        assert info["schema_version"] >= 1
        assert info["tables"]["bundles"] > 0
        assert info["tables"]["sandwiches"] > 0
        assert info["latest_checkpoint"]["completed_days"] == 2


class TestAnalyzeAutoDetect:
    def test_archive_and_jsonl_layouts_agree(
        self, archived_campaign, tmp_path, capsys
    ):
        """The campaign's JSONL, imported into a fresh archive, analyzes
        to the same output as the campaign's own archive."""
        out, db = archived_campaign
        imported = tmp_path / "imported.db"
        argv = ["archive", "import-jsonl", "--db", str(imported)]
        assert main(argv + ["--store", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--store", str(db), "--jobs", "1"]) == 0
        from_archive = capsys.readouterr().out
        assert main(["analyze", "--store", str(imported), "--jobs", "1"]) == 0
        from_jsonl = capsys.readouterr().out
        assert from_archive == from_jsonl
        assert "sandwiches" in from_archive

    def test_jsonl_directory_is_refused_untouched(
        self, archived_campaign, tmp_path, capsys
    ):
        out, _db = archived_campaign
        store = tmp_path / "jsonl"
        store.mkdir()
        for name in ("bundles.jsonl", "transactions.jsonl"):
            (store / name).write_bytes((out / name).read_bytes())

        def snapshot():
            return {path.name: path.read_bytes() for path in store.iterdir()}

        before = snapshot()
        capsys.readouterr()
        assert main(["analyze", "--store", str(store)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "repro archive import-jsonl" in lines[0]
        assert captured.out == ""
        assert snapshot() == before

    @pytest.mark.parametrize("extra", [[], ["--incremental"]])
    def test_analyze_closes_the_archive(self, tmp_path, capsys, extra):
        """SQLite removes the WAL file when an archive's last connection
        closes, so none is left once analyze returns."""
        rows = generate_rows(selftest_scenario(11, bundles=40))
        path = write_archive(rows, tmp_path / "a.db")
        argv = ["analyze", "--store", str(path), "--jobs", "1", *extra]
        assert main(argv) == 0
        assert "sandwiches" in capsys.readouterr().out
        assert not Path(f"{path}-wal").exists()

    def test_incremental_pass_over_archive(self, archived_campaign, capsys):
        _out, db = archived_campaign
        capsys.readouterr()
        assert main(["analyze", "--store", str(db), "--incremental"]) == 0
        first = capsys.readouterr().out
        assert "incremental pass" in first
        # Second pass sees nothing new: the no-op fast path reports the
        # same campaign totals without touching the archive.
        assert main(["analyze", "--store", str(db), "--incremental"]) == 0
        second = capsys.readouterr().out
        assert "no-op" in second
        assert "sandwiches" in second

    def test_jobs_flag_matches_serial_output(self, archived_campaign, capsys):
        _out, db = archived_campaign
        capsys.readouterr()
        assert main(["analyze", "--store", str(db), "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert (
            main(
                [
                    "analyze",
                    "--store",
                    str(db),
                    "--jobs",
                    "2",
                    "--chunk-size",
                    "32",
                ]
            )
            == 0
        )
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_incremental_accepts_jobs(self, archived_campaign, capsys):
        _out, db = archived_campaign
        capsys.readouterr()
        code = main(
            ["analyze", "--store", str(db), "--incremental", "--jobs", "2"]
        )
        assert code == 0
        assert "incremental pass" in capsys.readouterr().out

    def test_incremental_rejected_for_jsonl(self, archived_campaign, capsys):
        out, _db = archived_campaign
        capsys.readouterr()
        assert main(["analyze", "--store", str(out), "--incremental"]) == 2
        assert "repro archive import-jsonl" in capsys.readouterr().err

    def test_unrecognized_layout_names_both(self, tmp_path, capsys):
        capsys.readouterr()
        assert main(["analyze", "--store", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "archive database" in err
        assert "JSONL store" in err


class TestArchiveMaintenance:
    def test_import_export_round_trip(self, archived_campaign, tmp_path, capsys):
        out, _db = archived_campaign
        capsys.readouterr()
        imported = tmp_path / "imported.db"
        assert (
            main(
                [
                    "archive",
                    "import-jsonl",
                    "--db",
                    str(imported),
                    "--store",
                    str(out),
                ]
            )
            == 0
        )
        exported = tmp_path / "exported"
        assert (
            main(
                [
                    "archive",
                    "export-jsonl",
                    "--db",
                    str(imported),
                    "--out",
                    str(exported),
                ]
            )
            == 0
        )
        capsys.readouterr()
        original = (out / "bundles.jsonl").read_text()
        assert (exported / "bundles.jsonl").read_text() == original

    def test_import_refuses_non_store_directory(self, tmp_path, capsys):
        capsys.readouterr()
        code = main(
            [
                "archive",
                "import-jsonl",
                "--db",
                str(tmp_path / "a.db"),
                "--store",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "bundles.jsonl" in capsys.readouterr().err

    def test_vacuum_reports_sizes(self, archived_campaign, capsys):
        _out, db = archived_campaign
        lines = run_lines(capsys, ["archive", "vacuum", "--db", str(db)])
        assert "bytes" in lines[-1]


class TestQueryCommands:
    def test_bundle_count_matches_listing(self, archived_campaign, capsys):
        _out, db = archived_campaign
        total = int(
            run_lines(capsys, ["query", "bundles", "--db", str(db), "--count"])[-1]
        )
        assert total > 0
        lines = run_lines(
            capsys,
            [
                "query",
                "bundles",
                "--db",
                str(db),
                "--limit",
                "5",
                "--order-by",
                "tip_lamports",
                "--desc",
            ],
        )
        assert len(lines) == 5
        tips = [json.loads(line)["tipLamports"] for line in lines]
        assert tips == sorted(tips, reverse=True)

    def test_sandwich_listing_and_count(self, archived_campaign, capsys):
        _out, db = archived_campaign
        total = int(
            run_lines(
                capsys, ["query", "sandwiches", "--db", str(db), "--count"]
            )[-1]
        )
        lines = run_lines(capsys, ["query", "sandwiches", "--db", str(db)])
        assert len(lines) == total
        row = json.loads(lines[0])
        assert {"bundleId", "attacker", "victim"} <= set(row)

    def test_aggregation_commands(self, archived_campaign, capsys):
        _out, db = archived_campaign
        lengths = run_json(capsys, ["query", "lengths", "--db", str(db)])
        assert lengths["1"] > 0
        daily = run_json(capsys, ["query", "daily", "--db", str(db)])
        assert set(daily) == {"bundles", "sandwiches"}
        tips = run_json(
            capsys, ["query", "tips", "--db", str(db), "--length", "1"]
        )
        assert sum(tips.values()) == lengths["1"]
        attackers = run_json(capsys, ["query", "attackers", "--db", str(db)])
        assert all("gain_usd" in row for row in attackers)
        summary = run_json(capsys, ["query", "defensive", "--db", str(db)])
        assert "defensive" in summary
