"""CLI ``serve`` command test: boot the server process and probe it."""

import re
import signal
import subprocess
import sys
import time

import pytest

from repro.collector.http_client import HttpExplorerClient
from repro.errors import RateLimitedError


def test_serve_boots_and_answers():
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--small",
            "--days",
            "1",
            "--seed",
            "33",
            "--port",
            "0",
            "--rps",
            "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        # The command prints the bound address once the world is simulated.
        deadline = time.time() + 120
        line = ""
        while time.time() < deadline:
            line = process.stdout.readline()
            if "explorer" in line and "http://" in line:
                break
        match = re.search(r"http://([\d.]+):(\d+)", line)
        assert match, f"no address announced: {line!r}"
        host, port = match.group(1), int(match.group(2))

        client = HttpExplorerClient(host, port, timeout=5.0)
        assert client.health()
        records = client.recent_bundles(limit=5)
        assert records

        # Use up the burst (10 at --rps 2; a few more refill meanwhile).
        with pytest.raises(RateLimitedError) as rejected:
            for _ in range(100):
                client.recent_bundles(limit=1)
        retry_after = rejected.value.retry_after
        assert retry_after is not None and 0 < retry_after <= 0.5
        # The budget refills in wall-clock time once the world is served.
        time.sleep(retry_after + 0.25)
        assert client.recent_bundles(limit=1)
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=15)
