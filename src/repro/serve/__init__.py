"""``repro.serve`` — the public query/serving tier over a campaign archive.

Where :mod:`repro.explorer` simulates the *data source* the paper scraped
(a Jito-Explorer-shaped feed of landed bundles), this package serves the
*results*: detections, financial aggregates, collection-integrity status,
and the paper-figure aggregations, read straight from a WAL-mode SQLite
campaign archive and exposed to many concurrent HTTP clients.

The tier is layered the way production read APIs are:

- :mod:`repro.serve.models` — one function per wire object, with
  canonical (:func:`repro.conformance.canon.fmt_fixed`) money rendering,
  and the bundle renderer that writes canonical bytes straight from
  archive rows;
- :mod:`repro.serve.repositories` — typed repositories wrapping
  :class:`repro.archive.query.ArchiveQuery` with pagination and filtering;
- :mod:`repro.serve.cache` — a watermark-keyed response cache with strong
  ETags (invalidated the moment the archive watermark advances, so
  incremental re-analysis is immediately visible);
- :mod:`repro.serve.app` — the dispatch core over one fixed ``/v1/``
  route table, rate-limited per client by
  :class:`repro.utils.ratelimit.ClientRateLimiter`;
- :mod:`repro.serve.httpcommon` — the one HTTP server, which runs this
  tier (``repro api``) and the explorer (``repro serve``).
"""

from repro.serve.app import ApiConfig, ArchiveApiApp
from repro.serve.cache import CacheEntry, ResponseCache
from repro.serve.httpcommon import HttpServer
from repro.serve.repositories import PageParams

__all__ = [
    "ApiConfig",
    "ArchiveApiApp",
    "CacheEntry",
    "HttpServer",
    "PageParams",
    "ResponseCache",
]
