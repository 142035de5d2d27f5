"""One snapshot per uncached request.

A commit another connection lands while a handler runs must move neither
the body nor the watermark token it is served and cached under: the
token, the handler's reads and a page's total all come from one state of
the archive. Each test commits one bundle from a second connection in the
middle of a handler.
"""

import json

import pytest

from repro.archive.database import ArchiveDatabase
from repro.archive.store import ArchiveBundleStore
from repro.conformance.scenarios import (
    CORPUS_SCENARIOS,
    generate_rows,
    write_archive,
)
from repro.serve import ApiConfig, ArchiveApiApp
from tests.archive.conftest import make_bundle


@pytest.fixture
def served(tmp_path):
    """An app over a fresh archive, a writer on the same file, and a
    switch that commits one bundle when the app next counts bundles."""
    path = tmp_path / "archive.db"
    write_archive(generate_rows(CORPUS_SCENARIOS[0]), path)
    app = ArchiveApiApp(ApiConfig(db_path=path))
    app.open()
    writer = ArchiveDatabase(path)
    store = ArchiveBundleStore(writer)
    count_bundles = app.query.count_bundles
    armed = []

    def count_after_a_commit(*args, **kwargs):
        if armed:
            armed.clear()
            store.add_bundles([make_bundle(10_000)])
            store.flush()
        return count_bundles(*args, **kwargs)

    app.query.count_bundles = count_after_a_commit
    try:
        yield app, writer, armed
    finally:
        app.close()
        writer.close()


def _get(app, target: str) -> tuple[int, dict, dict]:
    status, payload, headers = app.handle("GET", target, {}, "test")
    return status, json.loads(payload.content), headers


def test_a_commit_mid_page_moves_neither_body_nor_token(served):
    app, writer, armed = served
    total = writer.max_seq("bundles")
    token = f"b{total}."
    target = f"/v1/bundles?limit=50&offset={total - 10}"

    armed.append(True)
    status, body, headers = _get(app, target)
    assert status == 200
    assert body["page"]["total"] == total
    assert body["page"]["returned"] == len(body["items"]) == 10
    assert headers["X-Archive-Watermark"].startswith(token)

    # The next request sees the commit, under a new token.
    status, body, headers = _get(app, target)
    assert body["page"]["total"] == total + 1
    assert body["page"]["returned"] == 11
    assert headers["X-Archive-Watermark"].startswith(f"b{total + 1}.")


def test_a_commit_mid_status_moves_neither_body_nor_token(served):
    app, writer, armed = served
    total = writer.max_seq("bundles")

    armed.append(True)
    status, body, headers = _get(app, "/v1/status")
    assert status == 200
    assert body["status"]["bundles"] == total
    assert body["status"]["watermark"] == headers["X-Archive-Watermark"]
    assert headers["X-Archive-Watermark"].startswith(f"b{total}.")
