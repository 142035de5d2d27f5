"""Repositories: validation, pagination, filtering, and shaping."""

import json

import pytest

from repro.archive.database import ArchiveDatabase
from repro.archive.query import ArchiveQuery
from repro.archive.store import ArchiveBundleStore
from repro.core.defensive import DefensiveReport
from repro.serve.repositories import (
    AggregateRepository,
    BundleRepository,
    DetectionRepository,
    MAX_PAGE_LIMIT,
    PageParams,
    StatusRepository,
)
from tests.archive.conftest import make_bundle, make_detail, make_sandwich


@pytest.fixture
def query(tmp_path):
    """A small archive: 10 bundles, 3 detections, 2 classified bundles."""
    db = ArchiveDatabase(tmp_path / "archive.db")
    store = ArchiveBundleStore(db)
    store.add_bundles(
        [make_bundle(i, length=3 if i % 3 == 0 else 1) for i in range(10)]
    )
    store.add_details([make_detail("t0-0")])
    store.flush()
    store.record_sandwiches(
        [
            make_sandwich(20, attacker="atk-a"),
            make_sandwich(21, attacker="atk-a"),
            make_sandwich(22, attacker="atk-b", victim_loss_usd=None,
                          attacker_gain_usd=None),
        ]
    )
    store.record_defensive(
        DefensiveReport(
            threshold_lamports=100_000,
            defensive_ids=["b1"],
            priority_ids=["b2"],
        )
    )
    yield ArchiveQuery(db)
    db.close()


class TestPageParams:
    def test_defaults(self):
        page = PageParams.from_params({})
        assert (page.limit, page.offset) == (100, 0)

    def test_explicit_values(self):
        page = PageParams.from_params({"limit": "5", "offset": "10"})
        assert (page.limit, page.offset) == (5, 10)

    @pytest.mark.parametrize("limit", ["0", str(MAX_PAGE_LIMIT + 1), "-3"])
    def test_limit_out_of_range(self, limit):
        with pytest.raises(ValueError, match="limit"):
            PageParams.from_params({"limit": limit})

    def test_negative_offset(self):
        with pytest.raises(ValueError, match="offset"):
            PageParams.from_params({"offset": "-1"})

    def test_non_integer(self):
        with pytest.raises(ValueError, match="integer"):
            PageParams.from_params({"limit": "ten"})


def _decoded(body) -> dict:
    """The JSON a bundle endpoint's pre-rendered body holds."""
    return json.loads(body.content)


class TestBundleRepository:
    def test_page_envelope_and_total(self, query):
        payload = _decoded(BundleRepository(query).page({"limit": "4"}))
        assert len(payload["items"]) == 4
        assert payload["page"] == {
            "limit": 4,
            "offset": 0,
            "returned": 4,
            "total": 10,
        }

    def test_offset_walks_forward(self, query):
        repo = BundleRepository(query)
        first = _decoded(repo.page({"limit": "4"}))["items"]
        second = _decoded(repo.page({"limit": "4", "offset": "4"}))["items"]
        assert first[-1]["bundleId"] != second[0]["bundleId"]
        ids = [b["bundleId"] for b in first + second]
        assert ids == [f"b{i}" for i in range(8)]

    def test_length_filter(self, query):
        payload = _decoded(BundleRepository(query).page({"length": "3"}))
        assert payload["page"]["total"] == 4
        assert all(b["numTransactions"] == 3 for b in payload["items"])

    def test_unknown_param_rejected(self, query):
        with pytest.raises(ValueError, match="unknown query parameter"):
            BundleRepository(query).page({"slop_min": "1"})

    def test_bad_order_column_rejected(self, query):
        with pytest.raises(ValueError, match="cannot order by"):
            BundleRepository(query).page({"order_by": "bundle_id"})

    def test_descending_order(self, query):
        payload = _decoded(
            BundleRepository(query).page(
                {"order_by": "tip_lamports", "descending": "true",
                 "limit": "2"}
            )
        )
        tips = [b["tipLamports"] for b in payload["items"]]
        assert tips == sorted(tips, reverse=True)

    def test_detail_found_and_missing(self, query):
        repo = BundleRepository(query)
        assert _decoded(repo.detail("b3"))["bundle"]["bundleId"] == "b3"
        assert repo.detail("nope") is None


class TestDetectionRepository:
    def test_page_and_attacker_filter(self, query):
        repo = DetectionRepository(query)
        assert repo.page({})["page"]["total"] == 3
        mine = repo.page({"attacker": "atk-a"})
        assert mine["page"]["total"] == 2
        assert all(d["attacker"] == "atk-a" for d in mine["items"])

    def test_priced_only_filter(self, query):
        payload = DetectionRepository(query).page({"priced_only": "true"})
        assert payload["page"]["total"] == 2
        assert all(d["victimLossUsd"] is not None for d in payload["items"])

    def test_bad_priced_only_rejected(self, query):
        with pytest.raises(ValueError, match="priced_only"):
            DetectionRepository(query).page({"priced_only": "maybe"})

    def test_detail_found_and_missing(self, query):
        repo = DetectionRepository(query)
        found = repo.detail("b22")
        assert found["detection"]["attacker"] == "atk-b"
        assert found["detection"]["victimLossUsd"] is None
        assert repo.detail("b1") is None


class TestAggregateRepository:
    def test_financials_shape(self, query):
        payload = AggregateRepository(query).financials()["financials"]
        assert payload["sandwichCount"] == 3
        assert payload["bundlesCollected"] == 10
        assert isinstance(payload["victimLossUsd"], str)

    def test_lengths_are_string_keyed(self, query):
        payload = AggregateRepository(query).lengths()["lengths"]
        assert payload == {"1": 6, "3": 4}

    def test_tips_bucket_validation(self, query):
        repo = AggregateRepository(query)
        with pytest.raises(ValueError, match="bucket_lamports"):
            repo.tips({"bucket_lamports": "0"})
        assert repo.tips({"bucket_lamports": "1000000"})["tips"]

    def test_attackers_limit_validation(self, query):
        repo = AggregateRepository(query)
        with pytest.raises(ValueError, match="limit"):
            repo.attackers({"limit": "0"})
        ranked = repo.attackers({"limit": "1"})["attackers"]
        assert len(ranked) == 1

    def test_daily_and_defensive(self, query):
        repo = AggregateRepository(query)
        daily = repo.daily()["daily"]
        assert sum(day["attacks"] for day in daily.values()) == 3
        defensive = repo.defensive()["defensive"]
        assert defensive["defensive"]["bundles"] == 1
        assert defensive["priority"]["bundles"] == 1


class TestStatusRepository:
    def test_status_counts_and_watermark(self, query):
        payload = StatusRepository(query).status()["status"]
        assert payload["bundles"] == 10
        assert payload["transactions"] == 1
        assert payload["sandwiches"] == 3
        # The defensive class alone; the watermark's d field counts both.
        assert payload["defensive"] == 1
        assert payload["watermark"] == query.watermark().token
        assert query.watermark().defensive_rows == 2
        # Length-3 bundles exist with no archived details except b0's
        # first member — all four candidates are incomplete.
        assert payload["pendingDetails"] == 4
