"""Watermark-keyed response cache.

The serving tier's cache-invalidation contract is one rule: *a cached
response is valid exactly as long as the archive watermark it was built
under*. Every request takes the current watermark token; when it differs
from the cache's generation, the whole cache is dropped at once. The app
rereads the watermark (five indexed scalar reads) only when SQLite's
``PRAGMA data_version`` on its read-only connection has moved, which
every commit by another connection does, and otherwise reuses the token
it read last. There is no TTL and no per-entry invalidation to get
wrong: a collector append or an incremental-analysis pass moves the
watermark, a full pass that replaces the stored analysis advances its
generation, and the very next request sees fresh data.

Entries carry the canonical body bytes plus the strong ETag computed over
them, so a hit serves exactly the bytes the ETag validates.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

from repro.errors import ConfigError

#: Hex digits of the body digest embedded in ETags.
ETAG_DIGEST_CHARS = 16


def make_etag(token: str, body: bytes) -> str:
    """A strong ETag: watermark token + body digest, quoted per RFC 9110.

    The token makes staleness visible in the tag itself; the digest makes
    two routes with identical bodies (or one route across identical
    rebuilds) validate consistently.
    """
    digest = hashlib.sha256(body).hexdigest()[:ETAG_DIGEST_CHARS]
    return f'"{token}-{digest}"'


@dataclass(frozen=True)
class CacheEntry:
    """One cached response: canonical bytes plus their validator."""

    body: bytes
    content_type: str
    etag: str


class ResponseCache:
    """LRU response cache whose whole generation is one watermark token.

    Not thread-safe by design: the API app runs on a single event loop and
    every access happens on that loop's thread (the same affinity the
    SQLite connection already imposes).
    """

    def __init__(self, capacity: int = 1_024) -> None:
        if capacity < 1:
            raise ConfigError(f"cache capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._token: str | None = None
        self._entries: OrderedDict[Hashable, CacheEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def generation(self) -> str | None:
        """The watermark token the current entries were built under."""
        return self._token

    def _roll_generation(self, token: str) -> None:
        if token != self._token:
            if self._entries:
                self.invalidations += 1
            self._entries.clear()
            self._token = token

    def get(self, token: str, key: Hashable) -> CacheEntry | None:
        """The entry for ``key`` under watermark ``token``, if still valid.

        A hit is counted here. A miss is counted by :meth:`count_miss`,
        once the caller has answered the request it could not serve.
        """
        self._roll_generation(token)
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def count_miss(self) -> None:
        """Count one lookup that found no entry and was then answered."""
        self.misses += 1

    def put(self, token: str, key: Hashable, entry: CacheEntry) -> None:
        """Store an entry built under watermark ``token``."""
        self._roll_generation(token)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
