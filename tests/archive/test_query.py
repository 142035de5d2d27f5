"""Typed query API: filters, ordering, pagination, aggregations."""

import pytest

from repro.archive.database import ArchiveDatabase
from repro.archive.query import ArchiveQuery, BundleFilter, SandwichFilter
from repro.archive.store import ArchiveBundleStore, FlushPolicy
from repro.core.defensive import DefensiveReport
from repro.errors import ConfigError
from repro.obs.registry import MetricsRegistry
from tests.archive.conftest import make_bundle, make_detail, make_sandwich


@pytest.fixture
def populated(db):
    """An archive with ten bundles, two details, three sandwiches."""
    store = ArchiveBundleStore(db, flush_policy=FlushPolicy(1))
    store.add_bundles(
        [make_bundle(i, length=3 if i % 3 == 0 else 1) for i in range(10)]
    )
    store.add_details(
        [make_detail("t0-0"), make_detail("t3-0", signer="signer-b")]
    )
    store.record_sandwiches(
        [
            make_sandwich(20, attacker="atk-a"),
            make_sandwich(21, attacker="atk-a"),
            make_sandwich(22, attacker="atk-b", victim_loss_usd=None),
        ]
    )
    store.record_defensive(
        DefensiveReport(
            threshold_lamports=100_000,
            defensive_ids=["b1"],
            priority_ids=["b2"],
        )
    )
    return ArchiveQuery(db)


class TestBundleQueries:
    def test_unfiltered_returns_all_in_seq_order(self, populated):
        records = populated.bundles()
        assert [b.bundle_id for b in records] == [f"b{i}" for i in range(10)]

    def test_slot_range_filter(self, populated):
        where = BundleFilter(slot_min=103, slot_max=105)
        assert populated.count_bundles(where) == 3
        assert all(103 <= b.slot <= 105 for b in populated.bundles(where))

    def test_length_filter(self, populated):
        # Lengths: i in {0, 3, 6, 9} are length-3, the rest length-1.
        assert populated.count_bundles(BundleFilter(length=3)) == 4

    def test_tip_filter(self, populated):
        where = BundleFilter(tip_min=90_000)
        assert populated.count_bundles(where) == 2

    def test_date_filter_matches_everything_on_one_day(self, populated):
        where = BundleFilter(date_from="1970-01-01", date_to="1970-01-01")
        assert populated.count_bundles(where) == 10

    def test_bundle_rows_are_what_bundles_decodes(self, populated):
        rows = populated.bundle_rows(order_by="slot", limit=3, offset=2)
        assert rows == [
            ("b2", 102, 1_002.0, 30_000, '["t2-0"]'),
            ("b3", 103, 1_003.0, 40_000, '["t3-0", "t3-1", "t3-2"]'),
            ("b4", 104, 1_004.0, 50_000, '["t4-0"]'),
        ]
        assert [
            record.bundle_id
            for record in populated.bundles(order_by="slot", limit=3, offset=2)
        ] == ["b2", "b3", "b4"]

    def test_ordering_descending(self, populated):
        tips = [
            b.tip_lamports
            for b in populated.bundles(order_by="tip_lamports", descending=True)
        ]
        assert tips == sorted(tips, reverse=True)

    def test_pagination(self, populated):
        page = populated.bundles(order_by="slot", limit=3, offset=4)
        assert [b.bundle_id for b in page] == ["b4", "b5", "b6"]

    def test_offset_without_limit(self, populated):
        assert len(populated.bundles(offset=8)) == 2

    def test_unindexed_order_column_rejected(self, populated):
        with pytest.raises(ConfigError, match="indexed columns"):
            populated.bundles(order_by="transaction_ids")

    def test_negative_pagination_rejected(self, populated):
        with pytest.raises(ConfigError):
            populated.bundles(limit=-1)
        with pytest.raises(ConfigError):
            populated.bundles(offset=-1)

    def test_bundle_by_id(self, populated):
        assert populated.bundle("b7").slot == 107
        assert populated.bundle("nope") is None


class TestDetailQueries:
    def test_details_by_signer(self, populated):
        assert [
            d.transaction_id for d in populated.details(signer="signer-b")
        ] == ["t3-0"]

    def test_details_for_bundle_keeps_bundle_order(self, populated):
        details = populated.details_for_bundle(populated.bundle("b3"))
        # Only the archived member is returned, in member order.
        assert [d.transaction_id for d in details] == ["t3-0"]


class TestSandwichQueries:
    def test_attacker_filter(self, populated):
        where = SandwichFilter(attacker="atk-a")
        assert populated.count_sandwiches(where) == 2

    def test_priced_only_filter(self, populated):
        assert populated.count_sandwiches(SandwichFilter(priced_only=True)) == 2

    def test_rows_round_trip_financials(self, populated):
        items = populated.sandwiches(order_by="seq")
        assert items[0].victim_loss_usd == pytest.approx(1.5 * 21)
        assert items[2].victim_loss_usd is None

    def test_order_by_loss(self, populated):
        losses = [
            s.victim_loss_usd
            for s in populated.sandwiches(
                SandwichFilter(priced_only=True),
                order_by="victim_loss_usd",
                descending=True,
            )
        ]
        assert losses == sorted(losses, reverse=True)


class TestAggregations:
    def test_length_histogram(self, populated):
        assert populated.length_histogram() == {1: 6, 3: 4}

    def test_bundle_counts_by_day(self, populated):
        table = populated.bundle_counts_by_day()
        assert table == {"1970-01-01": {1: 6, 3: 4}}

    def test_tip_histogram_buckets_by_floor(self, populated):
        histogram = populated.tip_histogram(bucket_lamports=50_000)
        assert sum(histogram.values()) == 10
        assert histogram[0] == 4  # tips 10k..40k

    def test_tip_histogram_rejects_zero_bucket(self, populated):
        with pytest.raises(ConfigError):
            populated.tip_histogram(bucket_lamports=0)

    def test_sandwiches_per_day_sums_priced_only(self, populated):
        daily = populated.sandwiches_per_day()
        day = daily["1970-01-01"]
        assert day["attacks"] == 3
        assert day["victim_loss_usd"] == pytest.approx(1.5 * 21 + 1.5 * 22)

    def test_top_attackers_ranked_by_gain(self, populated):
        ranking = populated.top_attackers()
        assert ranking[0]["attacker"] == "atk-a"
        assert ranking[0]["attacks"] == 2

    def test_defensive_summary(self, populated):
        summary = populated.defensive_summary()
        assert summary["defensive"]["bundles"] == 1
        assert summary["priority"]["bundles"] == 1


def traced_sql(db, query: ArchiveQuery, call) -> list[str]:
    """The SQL texts SQLite runs on ``db`` while ``call(query)`` does."""
    statements: list[str] = []
    connection = db.connection
    connection.set_trace_callback(statements.append)
    try:
        call(query)
    finally:
        connection.set_trace_callback(None)
    return statements


class TestEmptyFilters:
    """An empty filter matches every row and compiles to no WHERE clause,
    so SQLite can count through an index without stepping rows."""

    def test_empty_filters_match_every_row(self, populated):
        assert populated.count_bundles(BundleFilter()) == 10
        assert len(populated.bundles(BundleFilter())) == 10
        assert populated.count_sandwiches(SandwichFilter()) == 3
        assert len(populated.sandwiches(SandwichFilter())) == 3

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda q: q.count_bundles(), id="count_bundles"),
            pytest.param(lambda q: q.count_sandwiches(), id="count_sandwiches"),
            pytest.param(lambda q: q.bundles(limit=2), id="bundles"),
            pytest.param(lambda q: q.details(), id="details"),
            pytest.param(lambda q: q.tip_histogram(), id="tip_histogram"),
        ],
    )
    def test_unfiltered_queries_have_no_where_clause(
        self, db, populated, call
    ):
        (statement,) = traced_sql(db, populated, call)
        assert "WHERE" not in statement.upper()


class TestDataVersion:
    def test_moves_on_another_connections_commit_only(self, db, tmp_path):
        reader = ArchiveDatabase(tmp_path / "archive.db", read_only=True)
        try:
            query = ArchiveQuery(reader)
            first = query.data_version()
            assert query.data_version() == first
            assert query.watermark().bundle_seq == 0
            assert query.data_version() == first
            ArchiveBundleStore(db, flush_policy=FlushPolicy(1)).add_bundles(
                [make_bundle(0)]
            )
            assert query.data_version() != first
        finally:
            reader.close()
        # The writer's own commits leave its number alone.
        own = ArchiveQuery(db)
        before = own.data_version()
        ArchiveBundleStore(db, flush_policy=FlushPolicy(1)).add_bundles(
            [make_bundle(1)]
        )
        assert own.data_version() == before


class TestLatencyMetric:
    def test_queries_record_latency(self, db):
        registry = MetricsRegistry()
        query = ArchiveQuery(db, metrics=registry)
        query.count_bundles()
        histogram = registry.get("archive_query_seconds")
        assert histogram.count(query="count_bundles") == 1


class TestPaginationEdgeCases:
    """Pinned behaviors the serving tier's repositories rely on."""

    def test_empty_result_set(self, populated):
        where = BundleFilter(slot_min=10_000)
        assert populated.bundles(where, limit=10) == []
        assert populated.count_bundles(where) == 0

    def test_final_partial_page(self, populated):
        # 10 rows in pages of 4: the last page holds exactly 2.
        last = populated.bundles(limit=4, offset=8)
        assert [b.bundle_id for b in last] == ["b8", "b9"]

    def test_offset_past_end_is_empty_not_error(self, populated):
        assert populated.bundles(limit=4, offset=100) == []
        assert populated.sandwiches(limit=4, offset=100) == []

    def test_pages_tile_the_collection_exactly_once(self, populated):
        seen = []
        offset = 0
        while True:
            page = populated.bundles(limit=3, offset=offset)
            seen.extend(b.bundle_id for b in page)
            offset += 3
            if len(page) < 3:
                break
        assert seen == [f"b{i}" for i in range(10)]

    def test_equal_sort_keys_ordered_by_seq_ascending(self, populated):
        # Every bundle shares landed_date (and single-day landed_at ties are
        # possible); ordering by a non-unique column must still be total.
        one_page = populated.bundles(order_by="num_transactions")
        paged = [
            b
            for offset in range(0, 10, 2)
            for b in populated.bundles(
                order_by="num_transactions", limit=2, offset=offset
            )
        ]
        assert [b.bundle_id for b in paged] == [
            b.bundle_id for b in one_page
        ]
        # Within a tied key, rows come back in collection (seq) order.
        length_one = [b.bundle_id for b in one_page if b.num_transactions == 1]
        assert length_one == sorted(
            length_one, key=lambda bid: int(bid[1:])
        )

    def test_equal_sort_keys_ordered_by_seq_descending(self, populated):
        one_page = populated.bundles(
            order_by="num_transactions", descending=True
        )
        paged = [
            b
            for offset in range(0, 10, 3)
            for b in populated.bundles(
                order_by="num_transactions",
                descending=True,
                limit=3,
                offset=offset,
            )
        ]
        assert [b.bundle_id for b in paged] == [
            b.bundle_id for b in one_page
        ]
        # Ties break on seq in the same (descending) direction.
        length_one = [b.bundle_id for b in one_page if b.num_transactions == 1]
        assert length_one == sorted(
            length_one, key=lambda bid: int(bid[1:]), reverse=True
        )

    def test_sandwich_pages_tile_under_equal_landed_at(self, populated):
        one_page = populated.sandwiches(order_by="landed_at")
        paged = [
            s
            for offset in range(0, 3, 1)
            for s in populated.sandwiches(
                order_by="landed_at", limit=1, offset=offset
            )
        ]
        assert [s.event.bundle_id for s in paged] == [
            s.event.bundle_id for s in one_page
        ]


class TestServingQueries:
    """The watermark, defensive report, and integrity counts the API
    serves."""

    def test_watermark_token_reflects_every_table(self, populated):
        mark = populated.watermark()
        assert mark.bundle_seq == 10
        assert mark.sandwich_seq == 3
        assert mark.defensive_rows == 2
        assert mark.analysis_generation == 0
        assert mark.token == (
            f"b{mark.bundle_seq}.t{mark.transaction_seq}."
            f"s{mark.sandwich_seq}.d{mark.defensive_rows}."
            f"g{mark.analysis_generation}"
        )

    def test_watermark_of_empty_archive_is_zeros(self, db):
        mark = ArchiveQuery(db).watermark()
        assert mark.token == "b0.t0.s0.d0.g0"

    def test_defensive_report_in_seq_order(self, db, populated):
        store = ArchiveBundleStore(db)
        for bundle_id in ("b7", "b4"):
            store.record_defensive(
                DefensiveReport(
                    threshold_lamports=100_000, defensive_ids=[bundle_id]
                )
            )
        report = populated.defensive_report(100_000)
        assert report.defensive_ids == ["b1", "b4", "b7"]
        assert report.priority_ids == ["b2"]
        assert report.defensive_tips_lamports == sum(
            make_bundle(i).tip_lamports for i in (1, 4, 7)
        )
        assert report.defensive_per_day() == {"1970-01-01": 3}

    def test_defensive_report_reads_no_bundles_row(self, db, populated):
        statements: list[str] = []
        db.connection.set_trace_callback(statements.append)
        try:
            report = populated.defensive_report(100_000)
        finally:
            db.connection.set_trace_callback(None)
        assert report.length_one_total == 2
        assert statements
        assert not any("bundles" in sql for sql in statements)

    def test_sandwich_for_bundle(self, populated):
        found = populated.sandwich_for_bundle("b21")
        assert found is not None
        assert found.event.attacker == "atk-a"
        assert populated.sandwich_for_bundle("b0") is None

    def test_count_transactions(self, populated):
        assert populated.count_transactions() == 2

    def test_pending_detail_count(self, populated):
        # Four length-3 bundles; only b0 has any archived detail, and only
        # one of its three members — all four candidates are incomplete.
        assert populated.pending_detail_count() == 4
        assert populated.pending_detail_count(min_length=99) == 0
