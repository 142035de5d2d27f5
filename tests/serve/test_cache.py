"""The watermark-keyed response cache and its invalidation contract."""

import pytest

from repro.errors import ConfigError
from repro.serve.cache import CacheEntry, ResponseCache, make_etag


def entry(body: bytes = b"{}", token: str = "t") -> CacheEntry:
    return CacheEntry(
        body=body,
        content_type="application/json",
        etag=make_etag(token, body),
    )


class TestEtag:
    def test_quoted_and_token_prefixed(self):
        tag = make_etag("b1.t2.s3.d4", b"body")
        assert tag.startswith('"b1.t2.s3.d4-')
        assert tag.endswith('"')

    def test_differs_by_body(self):
        assert make_etag("t", b"a") != make_etag("t", b"b")

    def test_differs_by_token(self):
        assert make_etag("t1", b"a") != make_etag("t2", b"a")


class TestLookup:
    def test_miss_then_hit(self):
        cache = ResponseCache()
        assert cache.get("w1", "k") is None
        # The caller counts the miss once it has answered the request.
        assert cache.misses == 0
        cache.count_miss()
        cache.put("w1", "k", entry())
        assert cache.get("w1", "k") is not None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_watermark_advance_invalidates_everything(self):
        cache = ResponseCache()
        cache.put("w1", "a", entry())
        cache.put("w1", "b", entry())
        assert cache.get("w2", "a") is None
        assert cache.get("w2", "b") is None
        assert len(cache) == 0
        assert cache.invalidations == 1

    def test_generation_tracks_token(self):
        cache = ResponseCache()
        cache.put("w1", "a", entry())
        assert cache.generation == "w1"
        cache.get("w2", "a")
        assert cache.generation == "w2"


class TestLru:
    def test_capacity_evicts_oldest(self):
        cache = ResponseCache(capacity=2)
        cache.put("w", "a", entry())
        cache.put("w", "b", entry())
        cache.put("w", "c", entry())
        assert cache.get("w", "a") is None
        assert cache.get("w", "b") is not None
        assert cache.get("w", "c") is not None

    def test_get_refreshes_recency(self):
        cache = ResponseCache(capacity=2)
        cache.put("w", "a", entry())
        cache.put("w", "b", entry())
        cache.get("w", "a")
        cache.put("w", "c", entry())
        # "b" was least-recently-used after the touch of "a".
        assert cache.get("w", "b") is None
        assert cache.get("w", "a") is not None

    def test_capacity_validated(self):
        with pytest.raises(ConfigError):
            ResponseCache(capacity=0)


class TestHitRate:
    def test_zero_when_untouched(self):
        assert ResponseCache().hit_rate() == 0.0

    def test_counts_ratio(self):
        cache = ResponseCache()
        cache.get("w", "k")
        cache.count_miss()
        cache.put("w", "k", entry())
        cache.get("w", "k")
        cache.get("w", "k")
        assert cache.hit_rate() == pytest.approx(2 / 3)
