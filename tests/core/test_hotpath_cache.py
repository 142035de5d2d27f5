"""Hot-path caches: base58 memoization and the per-record trade memo.

Built bundle views are deliberately not cached: a view must not outlive
its last reference, nor keep its bundle and records alive.
"""

import gc
import weakref

from repro.core.detector import SandwichDetector
from repro.core.trades import extract_trades, traded_mints
from repro.utils.base58 import b58decode, b58encode
from tests.core.helpers import MEME, SOL, canonical_sandwich_view, swap_record


class TestBase58Cache:
    def test_round_trip_still_correct(self):
        payload = bytes(range(32))
        assert b58decode(b58encode(payload)) == payload

    def test_repeat_encodes_hit_the_cache(self):
        payload = b"parallel-engine-hot-path"
        first = b58encode(payload)
        before = b58encode.cache_info()
        assert b58encode(payload) == first
        after = b58encode.cache_info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses


class TestTradeMemoization:
    def test_extract_trades_returns_fresh_lists(self):
        record = swap_record("A")
        first = extract_trades(record)
        second = extract_trades(record)
        assert first == second
        assert first is not second  # callers may mutate their copy
        first.clear()
        assert extract_trades(record) == second

    def test_parsed_legs_cached_on_the_record(self):
        record = swap_record("A")
        extract_trades(record)
        assert "_trades" in record.__dict__

    def test_traded_mints_cached_and_stable(self):
        record = swap_record("A", SOL, MEME)
        assert traded_mints(record) == frozenset({SOL, MEME})
        assert traded_mints(record) is traded_mints(record)

    def test_view_failing_criterion_one_parses_no_trades(self):
        # The victim signs as the attacker: criterion 1 fails on signers.
        view = canonical_sandwich_view(attacker="A", victim="A")
        detector = SandwichDetector()
        assert detector.detect_view(view) is None
        assert detector.stats.rejections_by_criterion == {
            "same_attacker_distinct_victim": 1
        }
        assert not any("_trades" in r.__dict__ for r in view.records)


class TestViewsAreNotRetained:
    def test_dropped_view_frees_its_bundle_and_records(self):
        view = canonical_sandwich_view()
        refs = [weakref.ref(view.bundle)]
        refs.extend(weakref.ref(record) for record in view.records)
        del view
        gc.collect()
        assert [ref() for ref in refs] == [None] * 4
