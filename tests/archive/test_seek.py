"""Bundle pages by seek against plain ``LIMIT … OFFSET``.

An unfiltered page in ``seq`` order past offset 0 starts at the
``offset``-th row's ``seq`` when the archive's ``seq`` range is gap-free.
Hypothesis builds small archives, some with the gaps a real archive gets
(a deleted row, a resume's truncation followed by new rows, inserts a
replay's duplicates made ``INSERT OR IGNORE`` skip), and checks every page
against the statement it replaces.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archive.database import ArchiveDatabase
from repro.archive.query import ArchiveQuery, BundleFilter
from repro.archive.schema import BUNDLE_COLUMNS
from repro.archive.store import ArchiveBundleStore
from tests.archive.conftest import make_bundle

#: How an archive got its rows. The first two are gap-free (the second
#: starts past ``seq`` 1); the others leave gaps in all but the smallest.
SHAPES = (
    "gap-free",
    "deleted-first",
    "deleted-middle",
    "truncated-then-appended",
    "ignored-inserts",
)
GAPPED = SHAPES[2:]


def _archive(count: int, shape: str) -> ArchiveDatabase:
    """An in-memory archive of ``count`` bundles, then ``shape`` applied."""
    database = ArchiveDatabase(":memory:")
    store = ArchiveBundleStore(database)
    store.add_bundles([make_bundle(i) for i in range(count)])
    store.flush()
    conn = database.connection
    if shape == "deleted-first":
        conn.execute("DELETE FROM bundles WHERE seq = 1")
    elif shape == "deleted-middle":
        conn.execute("DELETE FROM bundles WHERE seq = ?", (count // 2 + 1,))
    elif shape == "truncated-then-appended":
        store.truncate_after(count // 2, 0)
        # A fresh store, as a resumed run has: nothing held in memory.
        again = ArchiveBundleStore(database)
        again.add_bundles([make_bundle(100 + i) for i in range(3)])
        again.flush()
    elif shape == "ignored-inserts":
        again = ArchiveBundleStore(database)
        again.add_bundles(
            [make_bundle(i) for i in range(count)] + [make_bundle(100)]
        )
        again.flush()
    conn.commit()
    return database


def _gap_free(database: ArchiveDatabase) -> bool:
    low, high, count = database.connection.execute(
        "SELECT MIN(seq), MAX(seq), COUNT(*) FROM bundles"
    ).fetchone()
    return count == 0 or high - low + 1 == count


def _plain(
    database: ArchiveDatabase, descending: bool, limit, offset: int
) -> list[tuple]:
    direction = "DESC" if descending else "ASC"
    return database.tuples(
        f"SELECT {', '.join(BUNDLE_COLUMNS)} FROM bundles "
        f"ORDER BY seq {direction} LIMIT ? OFFSET ?",
        [-1 if limit is None else limit, offset],
    ).fetchall()


@st.composite
def _pages(draw):
    count = draw(st.integers(0, 12))
    shape = draw(st.sampled_from(SHAPES))
    offset = draw(
        st.one_of(
            st.sampled_from([0, 1, max(count - 1, 0), count, count + 3]),
            st.integers(0, count + 2),
        )
    )
    limit = draw(st.one_of(st.none(), st.integers(0, count + 2)))
    return count, shape, offset, limit, draw(st.booleans())


class TestSeekMatchesOffset:
    @settings(max_examples=300, deadline=None)
    @given(page=_pages())
    def test_every_page_equals_the_plain_page(self, page):
        count, shape, offset, limit, descending = page
        database = _archive(count, shape)
        try:
            query = ArchiveQuery(database)
            expected = _plain(database, descending, limit, offset)
            assert (
                query.bundle_rows(
                    descending=descending, limit=limit, offset=offset
                )
                == expected
            )
            rows, total = query.bundle_page(
                descending=descending, limit=limit, offset=offset
            )
            assert rows == expected
            assert total == database.tuples(
                "SELECT COUNT(*) FROM bundles"
            ).fetchone()[0]
        finally:
            database.close()

    @settings(max_examples=200, deadline=None)
    @given(page=_pages())
    def test_the_seek_answers_only_a_gap_free_archive(self, page):
        """A page the seek can answer never steps past ``offset`` rows;
        on an archive with gaps, ``LIMIT … OFFSET`` gives every answer."""
        count, shape, offset, limit, descending = page
        database = _archive(count, shape)
        statements: list[str] = []
        try:
            query = ArchiveQuery(database)
            rows_left = len(_plain(database, descending, None, offset))
            database.connection.set_trace_callback(statements.append)
            query.bundle_rows(descending=descending, limit=limit, offset=offset)
            stepped = any(" OFFSET " in sql for sql in statements)
            if offset and rows_left and limit != 0:
                assert stepped == (not _gap_free(database))
        finally:
            database.connection.set_trace_callback(None)
            database.close()


class TestSeekShapes:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_shapes_are_what_they_say(self, shape):
        database = _archive(8, shape)
        try:
            assert _gap_free(database) is (shape not in GAPPED)
        finally:
            database.close()

    def test_filtered_and_reordered_pages_keep_offset(self):
        database = _archive(8, "gap-free")
        statements: list[str] = []
        try:
            query = ArchiveQuery(database)
            database.connection.set_trace_callback(statements.append)
            query.bundle_rows(BundleFilter(slot_min=101), offset=2, limit=3)
            query.bundle_rows(order_by="slot", offset=2, limit=3)
            assert len(statements) == 2
            assert all(" OFFSET " in sql for sql in statements)
        finally:
            database.connection.set_trace_callback(None)
            database.close()
