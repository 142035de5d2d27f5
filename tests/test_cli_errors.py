"""CLI error paths: every operator mistake gets one line and a non-zero exit.

The contract under test: no raw traceback ever reaches the terminal for a
predictable mistake — a missing or corrupt store, a bad flag value, an
empty golden corpus, a taken port. ``main()`` converts :class:`~repro.errors.ReproError`
into a one-line stderr diagnostic with exit code 2.
"""

from __future__ import annotations

import sqlite3
import subprocess
import sys

import pytest

from repro.cli import main
from repro.conformance.golden import bless_corpus


def _stderr_lines(capsys) -> list[str]:
    return [
        line for line in capsys.readouterr().err.splitlines() if line.strip()
    ]


@pytest.fixture()
def archive(tmp_path):
    from repro.conformance.scenarios import (
        generate_rows,
        selftest_scenario,
        write_archive,
    )

    path = tmp_path / "good.db"
    write_archive(generate_rows(selftest_scenario(11, bundles=20)), path)
    return path


class TestAnalyzeErrors:
    def test_missing_store_exits_2_without_creating_it(self, tmp_path, capsys):
        missing = tmp_path / "nope.db"
        assert main(["analyze", "--store", str(missing)]) == 2
        assert not missing.exists(), "analyze must never create its input"
        lines = _stderr_lines(capsys)
        assert len(lines) == 1
        assert "does not exist" in lines[0]

    def test_corrupt_archive_is_one_line(self, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.db"
        corrupt.write_bytes(b"SQLite format 3\x00" + b"garbage" * 4)
        assert main(["analyze", "--store", str(corrupt)]) == 2
        lines = _stderr_lines(capsys)
        assert len(lines) == 1
        assert "corrupt" in lines[0]
        assert "Traceback" not in capsys.readouterr().err

    def test_jobs_zero_is_one_line(self, archive, capsys):
        assert main(["analyze", "--store", str(archive), "--jobs", "0"]) == 2
        lines = _stderr_lines(capsys)
        assert len(lines) == 1
        assert "jobs" in lines[0]

    def test_negative_chunk_size_is_one_line(self, archive, capsys):
        assert (
            main(
                ["analyze", "--store", str(archive), "--chunk-size", "-5"]
            )
            == 2
        )
        lines = _stderr_lines(capsys)
        assert len(lines) == 1
        assert "chunk_size" in lines[0]

    def test_valid_archive_still_analyzes(self, archive, capsys):
        assert main(["analyze", "--store", str(archive), "--jobs", "1"]) == 0
        assert "sandwiches:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "engine, column, value",
        [
            pytest.param(engine, "transaction_ids", '["a\nb"]', id=engine)
            for engine in ("object", "columnar")
        ]
        + [
            pytest.param(engine, column, value, id=f"{engine}-{name}")
            for engine in ("object", "columnar")
            for name, column, value in (
                ("events", "events", "not json"),
                ("token_deltas", "token_deltas", "not json"),
                # JSON of the wrong container shape for its column.
                ("events-object", "events", '{"a": 1}'),
                ("events-int-array", "events", "[1]"),
                ("token_deltas-array", "token_deltas", "[1, 2]"),
            )
        ],
    )
    def test_hostile_transaction_id_is_refused_by_both_engines(
        self, archive, engine, column, value, capsys
    ):
        """Stored text that is not JSON, or not its column's container
        shape, is refused by both engines, instead of one of them
        accepting it or crashing: a raw control character in a single's
        id, and hostile events or token deltas of a length-three bundle's
        first member (the only members whose deltas the columnar engine
        reads are the edges)."""
        if engine == "columnar":
            pytest.importorskip("numpy")
        if column == "transaction_ids":
            update = (
                "UPDATE bundles SET transaction_ids = ? WHERE seq = "
                "(SELECT MIN(seq) FROM bundles WHERE num_transactions = 1)"
            )
        else:
            update = (
                f"UPDATE transactions SET {column} = ? WHERE transaction_id "
                "= (SELECT m.transaction_id FROM bundle_transactions m "
                "JOIN bundles b ON b.bundle_id = m.bundle_id "
                "WHERE b.num_transactions = 3 AND m.position = 0 "
                "ORDER BY b.seq LIMIT 1)"
            )
        conn = sqlite3.connect(archive)
        try:
            changed = conn.execute(update, (value,)).rowcount
            conn.commit()
        finally:
            conn.close()
        assert changed == 1
        code = main(
            [
                "analyze",
                "--store",
                str(archive),
                "--engine",
                engine,
                "--jobs",
                "1",
            ]
        )
        assert code == 2
        lines = _stderr_lines(capsys)
        assert len(lines) == 1
        assert "malformed" in lines[0]
        if column != "transaction_ids":
            assert "malformed transactions row" in lines[0]

    def test_incremental_pass_with_another_threshold_is_refused(
        self, tmp_path, capsys
    ):
        """Stored analysis at one threshold is never reported under
        another: the pass exits 2 naming both specs and writes nothing."""
        from repro.conformance.scenarios import (
            SyntheticScenario,
            generate_rows,
            write_archive,
        )

        path = write_archive(
            generate_rows(SyntheticScenario(name="x", seed=7, bundles=600)),
            tmp_path / "stamped.db",
        )
        incremental = ["analyze", "--store", str(path), "--incremental"]
        assert main(incremental + ["--jobs", "1"]) == 0

        def dump() -> list[str]:
            conn = sqlite3.connect(path)
            try:
                return list(conn.iterdump())
            finally:
                conn.close()

        before = dump()
        capsys.readouterr()
        assert main(incremental + ["--threshold", "5000"]) == 2
        lines = _stderr_lines(capsys)
        assert len(lines) == 1
        assert '"threshold_lamports": 100000' in lines[0]
        assert '"threshold_lamports": 5000' in lines[0]
        assert dump() == before


#: Refusals of flag combinations and of missing or mistyped inputs, with
#: ``{tmp}`` standing for a fresh directory. Each is decided before any
#: work starts.
REFUSALS = {
    "campaign-scenario-with-archive": [
        "campaign", "--scenario", "pack-adaptive-attacker",
        "--archive", "{tmp}/a.db", "--out", "{tmp}/out",
    ],
    "campaign-stream-resume": [
        "campaign", "--small", "--days", "1", "--stream", "--resume",
        "--archive", "{tmp}/a.db", "--out", "{tmp}/out",
    ],
    "campaign-resume-without-archive": [
        "campaign", "--small", "--days", "1", "--resume", "--out", "{tmp}/out",
    ],
    "analyze-missing-store": ["analyze", "--store", "{tmp}/missing.db"],
    "analyze-directory-store": ["analyze", "--store", "{tmp}/dir"],
    "stream-missing-db": ["stream", "--db", "{tmp}/missing.db"],
    "archive-import-without-bundles": [
        "archive", "import-jsonl",
        "--store", "{tmp}/dir", "--db", "{tmp}/a.db",
    ],
    "api-missing-db": ["api", "--db", "{tmp}/missing.db", "--port", "0"],
    "archive-stats-missing-db": ["archive", "stats", "--db", "{tmp}/m.db"],
    "archive-vacuum-missing-db": ["archive", "vacuum", "--db", "{tmp}/m.db"],
    "archive-export-missing-db": [
        "archive", "export-jsonl", "--db", "{tmp}/m.db", "--out", "{tmp}/out",
    ],
    "query-missing-db": ["query", "sandwiches", "--db", "{tmp}/m.db"],
    "serve-port-out-of-range": [
        "serve", "--small", "--days", "1", "--port", "70000",
    ],
    "campaign-zero-days": ["campaign", "--small", "--days", "0"],
    "campaign-checkpoint-every-zero": [
        "campaign", "--small", "--days", "1", "--checkpoint-every", "0",
        "--out", "{tmp}/out",
    ],
    "campaign-checkpoint-every-zero-with-archive": [
        "campaign", "--small", "--days", "1", "--checkpoint-every", "0",
        "--archive", "{tmp}/a.db", "--out", "{tmp}/out",
    ],
    "campaign-negative-days": ["campaign", "--small", "--days", "-1"],
    "chaos-negative-days": ["chaos", "--small", "--days", "-1"],
    "serve-zero-days": ["serve", "--small", "--days", "0", "--port", "0"],
}


class TestRefusalForm:
    """Every refusal is one ``repro <cmd>: error:`` line on stderr and
    exit 2, with nothing written and no progress line before it."""

    @pytest.mark.parametrize("argv", REFUSALS.values(), ids=REFUSALS.keys())
    def test_one_prefixed_line(self, argv, tmp_path, capsys):
        (tmp_path / "dir").mkdir()
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines() if line.strip()]
        assert len(lines) == 1, lines
        assert lines[0].startswith(f"repro {argv[0]}: error: ")
        assert captured.out == ""
        assert [path.name for path in tmp_path.iterdir()] == ["dir"]


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestBusyPort:
    """A taken port is an operator mistake: exit 2 with one error line,
    at once — not a thread traceback and a timeout."""

    def test_api_on_a_held_port(self, archive, held_port):
        result = _run_cli(
            "api", "--db", str(archive), "--port", str(held_port)
        )
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro api: error: cannot start the server")
        assert result.stdout == ""

    def test_serve_on_a_held_port(self, held_port):
        result = _run_cli(
            "serve", "--small", "--days", "1", "--port", str(held_port)
        )
        assert result.returncode == 2
        # The port is bound before the simulation: one line, no progress.
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "repro serve: error: cannot start the server"
        )
        assert "simulating" not in result.stderr
        assert result.stdout == ""


class TestNonPositiveLimits:
    """A rate limit that could admit nothing is refused before serving,
    not answered with a 500 at each client's first request. Run as
    subprocesses with a timeout: a server that accepted the limit would
    otherwise serve forever."""

    @pytest.mark.parametrize(
        "flags",
        [["--rps", "0"], ["--burst", "-1"], ["--burst", "0"]],
        ids=["rps-zero", "burst-negative", "burst-zero"],
    )
    def test_api_refuses(self, archive, flags):
        result = _run_cli(
            "api", "--db", str(archive), "--port", "0", *flags
        )
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro api: error: ")
        assert result.stdout == ""

    def test_serve_refuses_before_simulating(self):
        result = _run_cli(
            "serve", "--small", "--days", "1", "--port", "0", "--rps", "0"
        )
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro serve: error: ")
        assert "simulating" not in result.stderr
        assert result.stdout == ""


class TestSelftestErrors:
    def test_empty_corpus_fails_with_diagnostic(self, tmp_path, capsys):
        code = main(
            [
                "selftest",
                "--corpus",
                str(tmp_path / "empty"),
                "--seed",
                "11",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "no fixtures" in out
        assert "FAIL" in out

    def test_blessed_corpus_passes(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        bless_corpus(corpus, simulations=())
        code = main(
            ["selftest", "--corpus", str(corpus), "--seed", "11", "--jobs", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "selftest: PASS" in out
        assert "serial == parallel-j2 (exact): identical" in out
        assert "serial == incremental (contract): identical" in out
        assert "serial == resume-sigkill (contract): identical" in out

    def test_bless_writes_fixtures(self, tmp_path, capsys):
        corpus = tmp_path / "fresh"
        code = main(
            [
                "selftest",
                "--bless",
                "--corpus",
                str(corpus),
                "--seed",
                "11",
                "--jobs",
                "2",
            ]
        )
        assert code == 0
        assert sorted(p.name for p in corpus.glob("*.json"))
