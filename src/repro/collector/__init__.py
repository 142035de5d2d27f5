"""The measurement collector: the paper's Section 3.1 methodology.

- :class:`~repro.collector.poller.BundlePoller` requests the most recent
  bundles on a two-minute cadence and checks successive-response overlap;
- :class:`~repro.collector.coverage.CoverageEstimator` turns those overlap
  observations into the paper's 95%-of-pairs statistic;
- :class:`~repro.collector.store.BundleStore` deduplicates and persists
  everything collected;
- :class:`~repro.collector.detail_fetcher.TxDetailFetcher` pulls transaction
  contents for length-three bundles only, in rate-limited batches;
- :class:`~repro.collector.campaign.MeasurementCampaign` wires all of it to a
  live simulation.
"""

from repro.collector.campaign import CampaignResult, MeasurementCampaign
from repro.collector.client import ExplorerClient, InProcessExplorerClient
from repro.collector.coverage import CoverageEstimator
from repro.collector.detail_fetcher import DetailFetcherConfig, TxDetailFetcher
from repro.collector.http_client import HttpExplorerClient
from repro.collector.poller import BundlePoller, PollerConfig, PollStatus
from repro.collector.store import BundleStore

__all__ = [
    "BundlePoller",
    "BundleStore",
    "CampaignResult",
    "CoverageEstimator",
    "DetailFetcherConfig",
    "ExplorerClient",
    "HttpExplorerClient",
    "InProcessExplorerClient",
    "MeasurementCampaign",
    "PollStatus",
    "PollerConfig",
    "TxDetailFetcher",
]
