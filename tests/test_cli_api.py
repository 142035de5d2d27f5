"""CLI ``api`` command test: boot the server process and probe it."""

import json
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.request

from tests.serve.conftest import build_corpus_archive


def start_api(db_path, stderr=subprocess.DEVNULL):
    """Boot ``repro api`` on an ephemeral port; (process, host, port)."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "api",
            "--db",
            str(db_path),
            "--port",
            "0",
        ],
        stdout=subprocess.PIPE,
        stderr=stderr,
        text=True,
    )
    deadline = time.time() + 60
    line = ""
    while time.time() < deadline:
        line = process.stdout.readline()
        if "archive api" in line:
            break
    match = re.search(r"http://([\d.]+):(\d+)", line)
    if not match:
        process.kill()
        process.wait(timeout=15)
    assert match, f"no address announced: {line!r}"
    return process, match.group(1), int(match.group(2))


def test_api_boots_and_serves_archive(tmp_path):
    db_path = tmp_path / "archive.db"
    build_corpus_archive(db_path)
    process, host, port = start_api(db_path)
    try:
        base = f"http://{host}:{port}"
        with urllib.request.urlopen(f"{base}/healthz", timeout=5) as resp:
            assert resp.status == 200
        with urllib.request.urlopen(f"{base}/v1/status", timeout=5) as resp:
            status = json.load(resp)["status"]
        assert status["bundles"] > 0
        assert status["sandwiches"] > 0
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=15)
        process.stdout.close()


def test_interrupt_with_a_stalled_client_exits_cleanly(tmp_path):
    """Ctrl-C while a client holds half a request: exit 0, nothing on
    stderr, and the client sees its connection closed."""
    db_path = tmp_path / "archive.db"
    build_corpus_archive(db_path)
    process, host, port = start_api(db_path, stderr=subprocess.PIPE)
    try:
        with socket.create_connection((host, port), timeout=15) as stalled:
            stalled.sendall(b"GET /v1/status HTTP/1.1\r\nHo")
            # Answered after the stalled one was accepted.
            with urllib.request.urlopen(
                f"http://{host}:{port}/healthz", timeout=5
            ) as resp:
                assert resp.status == 200
            process.send_signal(signal.SIGINT)
            _stdout, stderr = process.communicate(timeout=30)
            assert stalled.recv(1) == b""
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=15)
    assert process.returncode == 0
    assert stderr == ""


def test_api_missing_archive_fails_fast(tmp_path):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "api",
            "--db",
            str(tmp_path / "nope.db"),
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert "does not exist" in result.stderr
